#include "service/streaming_monitor.h"

#include <algorithm>
#include <iterator>

namespace adprom::service {

ScoringScratch& ThreadScoringScratch() {
  thread_local ScoringScratch scratch;
  return scratch;
}

StreamingMonitor::StreamingMonitor(const core::ApplicationProfile* profile,
                                   const core::DetectionEngine* engine)
    : engine_(engine), window_length_(profile->options.window_length) {
  events_.reserve(2 * window_length_);
  symbols_.reserve(2 * window_length_);
  in_context_.reserve(2 * window_length_);
}

void StreamingMonitor::Append(runtime::CallEvent&& event, std::string* key) {
  // Resolve-once: the symbol and the context fact are computed now and
  // slide through every window that covers this event (both are
  // per-event, so the sliding slice equals what resolving each window
  // afresh would produce).
  symbols_.push_back(engine_->SymbolOf(event, key));
  in_context_.push_back(engine_->InContext(event) ? 1 : 0);
  events_.push_back(std::move(event));
  ++events_seen_;
}

void StreamingMonitor::MaybeCompact() {
  if (events_.size() < 2 * window_length_) return;
  // Bulk compaction: drop everything before the live window. Runs at most
  // once per n single events (or once per micro-batch), so the per-event
  // amortized cost is constant.
  const auto start = static_cast<ptrdiff_t>(events_.size() - window_length_);
  events_.erase(events_.begin(), events_.begin() + start);
  symbols_.erase(symbols_.begin(), symbols_.begin() + start);
  in_context_.erase(in_context_.begin(), in_context_.begin() + start);
}

void StreamingMonitor::ScoreTail(size_t count, size_t len,
                                 ScoringScratch* scratch) {
  hmm::BatchWorkspace& ws = scratch->workspace;
  // Window i ends at buffer position first_end + i (exclusive).
  const size_t first_end = events_.size() - count + 1;
  ws.spans.clear();
  for (size_t i = 0; i < count; ++i) {
    ws.spans.emplace_back(symbols_.data() + first_end + i - len, len);
  }
  ws.scores.resize(count);
  engine_->ScoreWindows(ws.spans, &ws, ws.scores);
  for (size_t i = 0; i < count; ++i) {
    const size_t start = first_end + i - len;
    const auto window = std::span(events_).subspan(start, len);
    const auto facts = std::span(in_context_).subspan(start, len);
    scratch->verdicts.push_back(engine_->AssembleVerdict(
        window, ws.spans[i], facts, windows_scored_, ws.scores[i]));
    ++windows_scored_;
  }
}

std::span<core::Detection> StreamingMonitor::ScoreBatch(
    std::span<runtime::CallEvent> events, ScoringScratch* scratch) {
  scratch->verdicts.clear();
  // Append the whole micro-batch first: spans formed below point into the
  // final buffer tail and stay valid through the scoring call.
  for (runtime::CallEvent& event : events) {
    Append(std::move(event), &scratch->key);
  }
  if (events.empty() || events_seen_ < window_length_) return {};
  // The batch completes one window per event past the first n-1 of the
  // stream; their ends are the last `num_ready` buffer positions.
  const size_t num_ready =
      std::min(events.size(), events_seen_ - window_length_ + 1);
  ScoreTail(num_ready, window_length_, scratch);
  MaybeCompact();
  return scratch->verdicts;
}

std::vector<core::Detection> StreamingMonitor::OnEvents(
    std::span<runtime::CallEvent> events) {
  const std::span<core::Detection> verdicts =
      ScoreBatch(events, &ThreadScoringScratch());
  return std::vector<core::Detection>(std::make_move_iterator(verdicts.begin()),
                                      std::make_move_iterator(verdicts.end()));
}

std::optional<core::Detection> StreamingMonitor::OnEvent(
    runtime::CallEvent event) {
  const std::span<core::Detection> verdicts =
      ScoreBatch(std::span(&event, 1), &ThreadScoringScratch());
  if (verdicts.empty()) return std::nullopt;
  return std::move(verdicts.front());
}

std::optional<core::Detection> StreamingMonitor::Finish() {
  if (finished_) return std::nullopt;
  finished_ = true;
  if (events_seen_ == 0 || events_seen_ >= window_length_) {
    return std::nullopt;
  }
  // Short session: fewer events than one window. The buffers were never
  // compacted (that needs 2n events), so they still hold the whole trace,
  // scored as one window of its own length.
  ScoringScratch& scratch = ThreadScoringScratch();
  scratch.verdicts.clear();
  ScoreTail(1, events_.size(), &scratch);
  return std::move(scratch.verdicts.front());
}

}  // namespace adprom::service
