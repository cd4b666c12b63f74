#ifndef ADPROM_BENCH_E2E_COMMON_H_
#define ADPROM_BENCH_E2E_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace adprom::e2e {

/// Monotonic nanoseconds (steady_clock); every timestamp the benchmark
/// compares — due times, verdict arrivals, span bounds — comes from here.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
template <typename T>
double Quantile(std::vector<T>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values->size() - 1) + 0.5);
  return static_cast<double>((*values)[std::min(rank, values->size() - 1)]);
}

inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// Nanoseconds per call; 0 when there were no calls.
inline double NsPer(int64_t ns, uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(calls);
}

/// FNV-1a 64 — the digest of verdicts and serialized profiles.
class Fnv64 {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<uint8_t>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void AddPod(const T& value) {
    Add(std::string_view(reinterpret_cast<const char*>(&value), sizeof(T)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

inline uint64_t Fnv64Of(std::string_view bytes) {
  Fnv64 h;
  h.Add(bytes);
  return h.value();
}

/// One reported metric, in the order it was added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Error and attempt accounting shared by every phase of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  void Fail(uint64_t count, const std::string& what) {
    if (count == 0) return;
    failed += count;
    if (notes.size() < 16) notes.push_back(what);
  }
};

// ---- /proc readers -------------------------------------------------------

/// VmHWM / VmRSS of this process in KiB (0 when unreadable).
uint64_t ProcStatusKb(const char* field);

/// Resets the peak-RSS watermark (VmHWM) to the current RSS by writing 5 to
/// /proc/self/clear_refs. Returns false when the kernel refuses.
bool ResetPeakRss();

/// On-CPU and run-queue-wait nanoseconds of one thread, from
/// /proc/self/task/<tid>/schedstat.
struct TaskTimes {
  uint64_t cpu_ns = 0;
  uint64_t wait_ns = 0;
};

/// Schedstat of every thread of the process, keyed by tid.
std::map<int, TaskTimes> ReadTaskTimes();

/// Process CPU seconds (user + system, all threads past and present).
double ProcessCpuSeconds();

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_COMMON_H_
