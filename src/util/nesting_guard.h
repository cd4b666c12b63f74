#ifndef ADPROM_UTIL_NESTING_GUARD_H_
#define ADPROM_UTIL_NESTING_GUARD_H_

#include <cstddef>

namespace adprom::util {

/// Counts one level of nesting in `*depth` for as long as it lives. The
/// recursive-descent parsers hold one per recursive call and fail once the
/// count passes their limit, so hostile input cannot exhaust the stack.
class NestingGuard {
 public:
  explicit NestingGuard(size_t* depth) : depth_(depth) { ++*depth_; }
  ~NestingGuard() { --*depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

 private:
  size_t* depth_;
};

}  // namespace adprom::util

#endif  // ADPROM_UTIL_NESTING_GUARD_H_
