#ifndef ADPROM_ANALYSIS_SUMMARY_CACHE_H_
#define ADPROM_ANALYSIS_SUMMARY_CACHE_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aggregation.h"
#include "analysis/ctm.h"
#include "util/status.h"

namespace adprom::analysis {

/// Per-pass cache counters for one analysis run. `invalidated` counts the
/// lookups that found an entry for the function under a *different* key —
/// the function or one of its transitive dependencies changed — and is a
/// subset of `misses` (the rest are functions never seen before).
struct PassCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t invalidated = 0;
};

/// One run's counters for every incrementally cached pass. Aggregation keeps
/// its original `AggregationStats` (hit/miss only; its memo predates this).
struct AnalysisCacheStats {
  PassCacheStats taint;
  PassCacheStats absint;
  PassCacheStats forecast;
};

// ---- Binary payload codec -------------------------------------------------
//
// Cache payloads are flat byte strings: each pass encodes its per-function
// summary with the writer below and decodes on a hit. Single-host format
// (native endianness/width); the disk file carries a version header and is
// rejected wholesale on any mismatch, so no cross-version decoding exists.

class BinaryWriter {
 public:
  void Raw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void B(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader; any overrun clears ok() and yields zero values,
/// so a truncated payload is detected by a single check after decoding.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buf) : buf_(&buf) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == buf_->size(); }

  bool Raw(void* out, size_t len) {
    if (!ok_ || buf_->size() - pos_ < len) {
      ok_ = false;
      std::memset(out, 0, len);
      return false;
    }
    std::memcpy(out, buf_->data() + pos_, len);
    pos_ += len;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  bool B() { return U8() != 0; }
  double F64() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint64_t len = U64();
    if (!ok_ || buf_->size() - pos_ < len) {
      ok_ = false;
      return std::string();
    }
    std::string s(buf_->data() + pos_, len);
    pos_ += len;
    return s;
  }

 private:
  const std::string* buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Serde<T>: uniform Put/Get for the container shapes the passes cache.
template <typename T>
struct Serde;

template <>
struct Serde<bool> {
  static void Put(BinaryWriter& w, bool v) { w.B(v); }
  static bool Get(BinaryReader& r) { return r.B(); }
};
template <>
struct Serde<int> {
  static void Put(BinaryWriter& w, int v) { w.I32(v); }
  static int Get(BinaryReader& r) { return r.I32(); }
};
template <>
struct Serde<uint64_t> {
  static void Put(BinaryWriter& w, uint64_t v) { w.U64(v); }
  static uint64_t Get(BinaryReader& r) { return r.U64(); }
};
template <>
struct Serde<int64_t> {
  static void Put(BinaryWriter& w, int64_t v) { w.I64(v); }
  static int64_t Get(BinaryReader& r) { return r.I64(); }
};
template <>
struct Serde<double> {
  static void Put(BinaryWriter& w, double v) { w.F64(v); }
  static double Get(BinaryReader& r) { return r.F64(); }
};
template <>
struct Serde<std::string> {
  static void Put(BinaryWriter& w, const std::string& v) { w.Str(v); }
  static std::string Get(BinaryReader& r) { return r.Str(); }
};
template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Put(BinaryWriter& w, const std::pair<A, B>& v) {
    Serde<A>::Put(w, v.first);
    Serde<B>::Put(w, v.second);
  }
  static std::pair<A, B> Get(BinaryReader& r) {
    A a = Serde<A>::Get(r);
    B b = Serde<B>::Get(r);
    return {std::move(a), std::move(b)};
  }
};
template <typename T>
struct Serde<std::vector<T>> {
  static void Put(BinaryWriter& w, const std::vector<T>& v) {
    w.U64(v.size());
    for (const T& e : v) Serde<T>::Put(w, e);
  }
  static std::vector<T> Get(BinaryReader& r) {
    const uint64_t n = r.U64();
    std::vector<T> v;
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      v.push_back(Serde<T>::Get(r));
    }
    return v;
  }
};
template <typename T>
struct Serde<std::set<T>> {
  static void Put(BinaryWriter& w, const std::set<T>& v) {
    w.U64(v.size());
    for (const T& e : v) Serde<T>::Put(w, e);
  }
  static std::set<T> Get(BinaryReader& r) {
    const uint64_t n = r.U64();
    std::set<T> v;
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      v.insert(Serde<T>::Get(r));
    }
    return v;
  }
};
template <typename K, typename V>
struct Serde<std::map<K, V>> {
  static void Put(BinaryWriter& w, const std::map<K, V>& v) {
    w.U64(v.size());
    for (const auto& [key, value] : v) {
      Serde<K>::Put(w, key);
      Serde<V>::Put(w, value);
    }
  }
  static std::map<K, V> Get(BinaryReader& r) {
    const uint64_t n = r.U64();
    std::map<K, V> v;
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      K key = Serde<K>::Get(r);
      v.emplace(std::move(key), Serde<V>::Get(r));
    }
    return v;
  }
};

template <typename T>
void Put(BinaryWriter& w, const T& v) {
  Serde<T>::Put(w, v);
}
template <typename T>
T Get(BinaryReader& r) {
  return Serde<T>::Get(r);
}

/// Exact (bit-identical) CTM codec, used by both the aggregation memo's disk
/// image and the per-function forecast cache.
void EncodeCtm(const Ctm& ctm, BinaryWriter* w);
Ctm DecodeCtm(BinaryReader* r);

// ---- Per-pass summary store -----------------------------------------------

/// One pass's cache: (config fingerprint, function name) → (Merkle key,
/// encoded payload). The fingerprint shards entries by pass options (the
/// Analyzer's labeler and lint's injection and exfil checks run the IFDS
/// engine on one store without colliding); the key is
/// the function's content hash chained through its dependencies, so a lookup
/// hits iff nothing the summary depends on changed. Lookup/Store are
/// thread-safe (the SCC-level solvers run under ParallelFor); everything
/// else is single-threaded orchestration.
class SummaryStore {
 public:
  struct Entry {
    uint64_t key = 0;
    std::string payload;
  };
  using Map = std::map<std::pair<uint64_t, std::string>, Entry>;

  /// On a key match copies the payload and counts a hit. On mismatch or
  /// absence counts a miss (mismatch also counts `invalidated`) and returns
  /// false. `stats` may be null.
  bool Lookup(uint64_t config_fp, const std::string& name, uint64_t key,
              std::string* payload, PassCacheStats* stats);
  void Store(uint64_t config_fp, const std::string& name, uint64_t key,
             std::string payload);
  /// Adds counters to `stats` under the store's lock. Engines use this for
  /// group decisions (recursive components hit or miss as a unit) because
  /// the run's stats object is shared across ParallelFor workers.
  void Count(PassCacheStats* stats, size_t hits, size_t misses,
             size_t invalidated);

  size_t size() const;
  void Clear();
  const Map& entries() const { return entries_; }
  Map& mutable_entries() { return entries_; }

 private:
  mutable std::mutex mu_;
  Map entries_;
};

/// Every incremental store plus the pCTM aggregation memo. One per
/// long-lived analyzer (core::Analyzer owns one) or per `--analysis-cache`
/// directory; a single cache may serve `analyze` and `lint` runs with
/// different configs side by side (fingerprint sharding).
struct AnalysisCache {
  SummaryStore taint;  // IFDS taint engine
  SummaryStore absint;
  SummaryStore forecast;
  AggregationCache aggregation;

  void Clear();
  /// Total entries across all stores (aggregation included).
  size_t TotalEntries() const;
};

// ---- Disk persistence -----------------------------------------------------

/// Bumped whenever any payload encoding or key derivation changes; a file
/// written by any other version is rejected wholesale (fail-closed), never
/// partially decoded.
inline constexpr uint32_t kAnalysisCacheVersion = 2;

/// Name of the cache image inside an `--analysis-cache` directory.
inline constexpr const char kAnalysisCacheFile[] = "analysis.cache";

/// Writes the whole cache to `<dir>/analysis.cache` (creating `dir` if
/// needed).
util::Status SaveAnalysisCache(const AnalysisCache& cache,
                               const std::string& dir);

/// Loads `<dir>/analysis.cache` into `cache` (replacing its contents).
/// A missing file is OK (leaves `cache` empty — a cold start); a present
/// file with a bad magic, version, or structure is an error and `cache` is
/// left empty — the caller must not warm-start from it.
util::Status LoadAnalysisCache(const std::string& dir, AnalysisCache* cache);

}  // namespace adprom::analysis

#endif  // ADPROM_ANALYSIS_SUMMARY_CACHE_H_
