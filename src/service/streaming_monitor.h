#ifndef ADPROM_SERVICE_STREAMING_MONITOR_H_
#define ADPROM_SERVICE_STREAMING_MONITOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detection_engine.h"
#include "core/profile.h"
#include "hmm/batch_forward.h"
#include "hmm/inference.h"
#include "runtime/call_event.h"

namespace adprom::service {

/// Grow-only buffers for scoring one micro-batch: the batched engine's
/// workspace, the verdicts it produces, the key buffer symbol lookups
/// compose labeled observables in, and the SessionManager's batch of
/// events taken from a session queue. Owned per thread, not per session
/// (ThreadScoringScratch): a session keeps only its sliding window, so
/// thousands of idle sessions hold no scoring buffers, and each worker's
/// buffers stay warm across the sessions it serves.
struct ScoringScratch {
  hmm::BatchWorkspace workspace;
  std::vector<core::Detection> verdicts;
  std::string key;
  std::vector<runtime::CallEvent> batch;
};

/// The calling thread's scratch. Not re-entrant: whoever holds spans into
/// it must be done with them before scoring again on the same thread.
ScoringScratch& ThreadScoringScratch();

/// Incremental Detection Engine front-end: accepts runtime::CallEvents one
/// at a time (OnEvent) or in micro-batches (ScoreBatch / OnEvents) and
/// emits, per event, the verdict of the n-window that event completes —
/// the same verdicts DetectionEngine::MonitorTrace would emit for the full
/// recorded trace, bit for bit, because all paths funnel through the
/// engine's shared scoring + verdict assembly.
///
/// Per-event cost: each event's facts (symbol, context membership) are
/// resolved exactly once on arrival and slide through every window that
/// covers the event; the buffers are compacted in bulk. Every completed
/// window of a micro-batch is scored as ONE batch through the engine's
/// vectorized hmm::BatchScorer. The batch is whatever the caller already
/// has in hand — the monitor never waits for more events, so batching
/// adds no formation delay. With a warm ScoringScratch, ScoreBatch
/// allocates nothing while every window is Normal.
///
/// Not thread-safe: one StreamingMonitor per session, driven by at most
/// one thread at a time (the SessionManager guarantees this).
class StreamingMonitor {
 public:
  /// Scores through an engine shared across sessions: `profile` and
  /// `engine` (compiled against that same profile) must outlive the
  /// monitor. Per-session state is just the sliding buffers, and the
  /// CSR/triage tables stay hot in cache instead of being duplicated per
  /// session.
  StreamingMonitor(const core::ApplicationProfile* profile,
                   const core::DetectionEngine* engine);

  /// Feeds a micro-batch of events (consumed by move) and returns the
  /// verdicts of every window they complete, in event order — exactly the
  /// concatenated results of calling OnEvent on each. The verdicts live in
  /// `scratch` and stay valid until its next use.
  std::span<core::Detection> ScoreBatch(std::span<runtime::CallEvent> events,
                                        ScoringScratch* scratch);

  /// ScoreBatch through the calling thread's scratch, verdicts moved out.
  std::vector<core::Detection> OnEvents(std::span<runtime::CallEvent> events);

  /// Feeds the next event of the session. Returns the verdict of the
  /// window this event completes, or nullopt while the first window is
  /// still filling (batch emits no verdict for those prefixes either).
  std::optional<core::Detection> OnEvent(runtime::CallEvent event);

  /// Ends the stream. Sessions shorter than the window length are scored
  /// as one whole-trace window — the SlidingWindows rule for short traces
  /// — so even a 1-event session gets the verdict batch would give it.
  /// Idempotent; returns a verdict only on the first call and only for
  /// short sessions.
  std::optional<core::Detection> Finish();

  size_t events_seen() const { return events_seen_; }
  size_t windows_scored() const { return windows_scored_; }

 private:
  /// Appends one event and its facts to the sliding buffers.
  void Append(runtime::CallEvent&& event, std::string* key);
  /// Scores the `count` windows ending at the last `count` buffer
  /// positions (each of length `len`) into scratch->verdicts.
  void ScoreTail(size_t count, size_t len, ScoringScratch* scratch);
  /// Drops everything before the live window once the buffers outgrow 2n.
  void MaybeCompact();

  const core::DetectionEngine* engine_;
  size_t window_length_;
  /// Sliding buffers, one entry per event: the event, its symbol and its
  /// context fact. The live window is always the contiguous tail. When
  /// they outgrow 2n events the prefix before the live window is
  /// discarded with one bulk move — amortized O(1) per event, and spans
  /// into the tail stay valid for the duration of each scoring call
  /// (ScoreBatch appends its whole batch before forming spans).
  runtime::Trace events_;
  hmm::ObservationSeq symbols_;
  std::vector<uint8_t> in_context_;
  size_t events_seen_ = 0;
  size_t windows_scored_ = 0;
  bool finished_ = false;
};

}  // namespace adprom::service

#endif  // ADPROM_SERVICE_STREAMING_MONITOR_H_
