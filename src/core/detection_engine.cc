#include "core/detection_engine.h"

#include <algorithm>
#include <set>
#include <string_view>

namespace adprom::core {

namespace {

/// Orders context pairs against (caller, callee) string views, so the
/// per-event lookup compares in place instead of copying both names.
struct ContextLess {
  using View = std::pair<std::string_view, std::string_view>;
  static View AsView(const std::pair<std::string, std::string>& pair) {
    return {pair.first, pair.second};
  }
  bool operator()(const std::pair<std::string, std::string>& a,
                  const View& b) const {
    return AsView(a) < b;
  }
  bool operator()(const View& a,
                  const std::pair<std::string, std::string>& b) const {
    return a < AsView(b);
  }
};

}  // namespace

DetectionEngine::DetectionEngine(const ApplicationProfile* profile)
    : profile_(profile),
      // std::set iterates in pair order, so the copy is already sorted.
      context_pairs_(profile->context_pairs.begin(),
                     profile->context_pairs.end()),
      sparse_(profile->model) {
  hmm::BatchOptions batch_options;
  batch_options.no_simd = profile->options.no_simd;
  batch_options.triage = profile->options.triage;
  batch_ = hmm::BatchScorer(&sparse_, batch_options);
}

int DetectionEngine::SymbolOf(const runtime::CallEvent& event,
                              std::string* key) const {
  return profile_->alphabet.Lookup(profile_->ObservableInto(event, key));
}

bool DetectionEngine::InContext(const runtime::CallEvent& event) const {
  const ContextLess::View pair(event.caller, event.callee);
  return std::binary_search(context_pairs_.begin(), context_pairs_.end(), pair,
                            ContextLess());
}

Detection DetectionEngine::AssembleVerdict(
    std::span<const runtime::CallEvent> window, hmm::SymbolSpan seq,
    std::span<const uint8_t> in_context, size_t window_start,
    double score) const {
  Detection detection;
  detection.window_start = window_start;
  detection.score = score;

  // Out-of-context check: a library call issued from a function that never
  // issues it, statically or during training.
  for (size_t i = 0; i < window.size(); ++i) {
    if (in_context[i] == 0) {
      detection.flag = DetectionFlag::kOutOfContext;
      detection.detail = window[i].callee + " called from " + window[i].caller;
      break;
    }
  }

  // A symbol outside the profile's alphabet is not a *legitimate call*
  // (paper §V-D footnote: calls observed during analysis and training).
  // Its true emission probability is zero — the smoothed model only
  // floors it for numerical stability — so the window's real P(cs|λ) is 0
  // and sits below any threshold.
  for (int symbol : seq) {
    if (symbol == profile_->alphabet.unk_id()) {
      detection.score = -1e9;
      if (detection.detail.empty()) detection.detail = "unknown call symbol";
      break;
    }
  }

  // TD presence in the window. Only a profile built with data-flow labels
  // (AD-PROM) can see taint: the CMarkov baseline observes plain call
  // names and cannot connect activity to its source — those profiles skip
  // the provenance scan entirely.
  bool has_td_output = false;
  if (profile_->options.use_dd_labels) {
    for (const runtime::CallEvent& event : window) {
      if (event.td_output) {
        has_td_output = true;
        break;
      }
    }
  }

  if (detection.flag != DetectionFlag::kOutOfContext) {
    if (detection.score < profile_->threshold) {
      detection.flag = has_td_output ? DetectionFlag::kDataLeak
                                     : DetectionFlag::kAnomalous;
    } else {
      detection.flag = DetectionFlag::kNormal;
    }
  }
  if (detection.IsAlarm() && has_td_output) {
    // Resolve the TD provenance only for windows that actually alarm: the
    // dynamic source tables, supplemented with the statically resolved
    // tables for each label.
    std::set<std::string> sources;
    for (const runtime::CallEvent& event : window) {
      if (!event.td_output) continue;
      sources.insert(event.source_tables.begin(), event.source_tables.end());
      auto it = profile_->labeled_sources.find(event.Observable());
      if (it != profile_->labeled_sources.end()) {
        sources.insert(it->second.begin(), it->second.end());
      }
    }
    detection.source_tables.assign(sources.begin(), sources.end());
  }
  return detection;
}

Detection DetectionEngine::AssembleVerdict(
    std::span<const runtime::CallEvent> window, hmm::SymbolSpan seq,
    size_t window_start, double score) const {
  std::vector<uint8_t> in_context(window.size());
  for (size_t i = 0; i < window.size(); ++i) {
    in_context[i] = InContext(window[i]) ? 1 : 0;
  }
  return AssembleVerdict(window, seq, in_context, window_start, score);
}

void DetectionEngine::ScoreWindows(std::span<const hmm::SymbolSpan> seqs,
                                   hmm::BatchWorkspace* ws,
                                   std::span<double> out) const {
  // The triage threshold is the profile threshold: a certified window's
  // exact score provably clears it, so AssembleVerdict's comparison lands
  // on the same side either way.
  if (!batch_.ScoreBatch(seqs, profile_->threshold, ws, out).ok()) {
    std::fill(out.begin(), out.end(), -1e9);
  }
}

void DetectionEngine::ReserveWorkspace(hmm::BatchWorkspace* ws) const {
  batch_.Reserve(ws);
}

std::vector<Detection> DetectionEngine::MonitorTraceInto(
    const runtime::Trace& trace, hmm::BatchWorkspace* ws) const {
  std::vector<Detection> out;
  // Resolve every event's facts once; window i reads the slice [i, i+len)
  // of each array (SymbolOf and InContext are per-event, so the slice
  // equals what resolving the window afresh would produce).
  hmm::ObservationSeq symbols(trace.size());
  std::vector<uint8_t> in_context(trace.size());
  std::string key;
  for (size_t i = 0; i < trace.size(); ++i) {
    symbols[i] = SymbolOf(trace[i], &key);
    in_context[i] = InContext(trace[i]) ? 1 : 0;
  }
  const auto windows = SlidingWindows(trace, profile_->options.window_length);
  out.reserve(windows.size());
  // Stage every window span — SlidingWindows guarantees they share one
  // length — score the whole trace through the batch engine, then
  // assemble the verdicts.
  ws->spans.clear();
  for (const auto& window : windows) {
    const size_t offset = static_cast<size_t>(window.data() - trace.data());
    ws->spans.emplace_back(symbols.data() + offset, window.size());
  }
  ws->scores.resize(windows.size());
  ScoreWindows(ws->spans, ws, ws->scores);
  for (size_t i = 0; i < windows.size(); ++i) {
    const size_t start = static_cast<size_t>(windows[i].data() - trace.data());
    const auto facts = std::span(in_context).subspan(start, windows[i].size());
    out.push_back(AssembleVerdict(windows[i], ws->spans[i], facts, i,
                                  ws->scores[i]));
  }
  return out;
}

std::vector<Detection> DetectionEngine::MonitorTrace(
    const runtime::Trace& trace) const {
  hmm::BatchWorkspace workspace;
  ReserveWorkspace(&workspace);
  return MonitorTraceInto(trace, &workspace);
}

std::vector<std::vector<Detection>> DetectionEngine::MonitorTraces(
    const std::vector<runtime::Trace>& traces,
    util::ThreadPool* pool) const {
  std::vector<std::vector<Detection>> out(traces.size());
  if (traces.empty()) return out;
  // Block decomposition, one reserved workspace per block: every trace in
  // a block reuses the same activation/alpha buffers, so the steady-state
  // batch path allocates nothing per trace (the streaming service gets the
  // same property from its per-thread ScoringScratch).
  const size_t num_blocks =
      pool == nullptr ? 1
                      : std::min(traces.size(), 4 * pool->num_workers());
  util::ParallelFor(pool, num_blocks, [&](size_t blk) {
    hmm::BatchWorkspace workspace;
    ReserveWorkspace(&workspace);
    const size_t begin = blk * traces.size() / num_blocks;
    const size_t end = (blk + 1) * traces.size() / num_blocks;
    for (size_t i = begin; i < end; ++i) {
      out[i] = MonitorTraceInto(traces[i], &workspace);
    }
  });
  return out;
}

std::vector<Detection> DetectionEngine::Alarms(
    const runtime::Trace& trace) const {
  std::vector<Detection> out;
  for (Detection& d : MonitorTrace(trace)) {
    if (d.IsAlarm()) out.push_back(std::move(d));
  }
  return out;
}

}  // namespace adprom::core
