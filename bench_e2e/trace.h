#ifndef ADPROM_BENCH_E2E_TRACE_H_
#define ADPROM_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace adprom::e2e {

/// The layer boundaries the traced pass records: the benchmark's own calls
/// into the library, and the library's calls back into the benchmark's
/// sink. With an inline node (no pool) they all run on the ingest thread,
/// so each span nests under the call that caused it.
enum class SpanName : uint8_t {
  kFeed,             // FrameDecoder::Feed
  kNext,             // FrameDecoder::Next
  kSubmit,           // FleetNode::Submit
  kCloseSession,     // FleetNode::CloseSession
  kReload,           // ProfileRegistry::Reload
  kOnDetection,      // AlertSink::OnDetection (the benchmark's sink)
  kOnSessionClosed,  // AlertSink::OnSessionClosed
};
inline constexpr size_t kSpanNames = 7;
const char* SpanNameText(SpanName name);

/// Spans of one single-threaded pass, kept in memory and written out when
/// the run ends. Not thread-safe: only the traced inline pass records.
class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit SpanRecorder(size_t expected_spans) {
    spans_.reserve(expected_spans);
  }

  uint32_t Begin(SpanName name, uint32_t session) {
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    spans_.push_back({NowNs(), 0,
                      stack_.empty() ? kNoParent : stack_.back(), session,
                      name});
    stack_.push_back(index);
    return index;
  }
  void End(uint32_t index) {
    spans_[index].dur_ns = NowNs() - spans_[index].start_ns;
    stack_.pop_back();
  }

  struct Span {
    int64_t start_ns;
    int64_t dur_ns;
    uint32_t parent;
    uint32_t session;  // stream session index (kNoParent when none)
    SpanName name;
  };
  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals over the recorded spans.
  struct Row {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // total minus what direct children cover
  };
  std::vector<Row> Rows() const;

  /// Writes the spans as Chrome trace-event JSON (complete "X" events,
  /// microsecond timestamps relative to the first span).
  bool WriteChromeJson(const std::string& path,
                       const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// RAII span that costs one branch when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name,
             uint32_t session = SpanRecorder::kNoParent)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name, session) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t index_;
};

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_TRACE_H_
