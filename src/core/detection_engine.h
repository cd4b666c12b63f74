#ifndef ADPROM_CORE_DETECTION_ENGINE_H_
#define ADPROM_CORE_DETECTION_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.h"
#include "core/profile.h"
#include "hmm/batch_forward.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "runtime/call_event.h"
#include "util/thread_pool.h"

namespace adprom::core {

/// The paper's Detection Engine: receives n-length call sequences from the
/// Calls Collector, computes P(cs | λ) with the trained HMM, compares it
/// to the profile threshold, and raises one of the four flags. With
/// data-flow labels enabled it also reports which DB tables the involved
/// targeted data came from.
///
/// Throughput design: MonitorTrace resolves each event's facts *once* —
/// its HMM symbol (SymbolOf) and whether its (caller, callee) pair is a
/// legitimate context (InContext) — and scores and judges each
/// overlapping window as a slice of those arrays, with zero per-window
/// heap allocations in steady state. The streaming service keeps the same
/// arrays per session and assembles verdicts from them the same way.
/// Every window is scored through the batched engine (hmm::BatchScorer):
/// up to hmm::BatchOptions::width windows advance together per forward
/// step, sweeping the transition CSR once per step instead of once per
/// window, with lane-per-window SIMD kernels that stay bit-identical to
/// scalar ForwardInto. MonitorTraces cuts the traces into blocks fanned
/// across a worker pool; each block reuses one reserved workspace for all
/// of its traces.
class DetectionEngine {
 public:
  /// `profile` must outlive the engine.
  explicit DetectionEngine(const ApplicationProfile* profile);

  /// The batch scorer holds a pointer to this engine's CSR compilation, so
  /// an engine cannot be copied or moved without dangling it.
  DetectionEngine(const DetectionEngine&) = delete;
  DetectionEngine& operator=(const DetectionEngine&) = delete;

  /// Slides over a full trace (stride 1) and returns every verdict.
  std::vector<Detection> MonitorTrace(const runtime::Trace& trace) const;

  /// Batch variant: monitors every trace, fanning the independent traces
  /// across `pool` (null pool = serial). Result i holds trace i's
  /// verdicts, identical to MonitorTrace(traces[i]).
  std::vector<std::vector<Detection>> MonitorTraces(
      const std::vector<runtime::Trace>& traces,
      util::ThreadPool* pool = nullptr) const;

  /// Convenience: the alarms only.
  std::vector<Detection> Alarms(const runtime::Trace& trace) const;

  /// The event's HMM symbol (<unk> when outside the alphabet); equals
  /// profile.Encode of the event. `key` is a grow-only buffer for
  /// composing labeled observables, so a warm call allocates nothing.
  int SymbolOf(const runtime::CallEvent& event, std::string* key) const;

  /// Whether (event.caller, event.callee) is one of the profile's
  /// legitimate context pairs. Builds no string.
  bool InContext(const runtime::CallEvent& event) const;

  /// Scores a group of equal-length windows into `out` (same size as
  /// `seqs`) through the batched engine. Exact-tier scores are
  /// bit-identical to the scalar hmm::PerSymbolLogLikelihood per window;
  /// with the triage tier enabled, certified-benign windows report their
  /// lower bound instead (AssembleVerdict reaches the same flag either
  /// way). Should the engine reject the group (mixed lengths, or a symbol
  /// outside the model's alphabet), every window in it scores -1e9.
  void ScoreWindows(std::span<const hmm::SymbolSpan> seqs,
                    hmm::BatchWorkspace* ws, std::span<double> out) const;

  /// The single shared verdict implementation, given the window's score:
  /// out-of-context scan, unknown-symbol override, threshold comparison,
  /// flag selection, and alarm provenance. `seq` and `in_context` are the
  /// window's per-event facts (SymbolOf, InContext), in window order.
  /// MonitorTrace and the streaming service (service::StreamingMonitor)
  /// both funnel through it, which is what makes streaming verdicts
  /// bit-identical to batch by construction.
  Detection AssembleVerdict(std::span<const runtime::CallEvent> window,
                            hmm::SymbolSpan seq,
                            std::span<const uint8_t> in_context,
                            size_t window_start, double score) const;

  /// Convenience: resolves the window's context facts, then runs the
  /// same body.
  Detection AssembleVerdict(std::span<const runtime::CallEvent> window,
                            hmm::SymbolSpan seq, size_t window_start,
                            double score) const;

  /// Pre-sizes `ws` for this engine's state count and batch width, so
  /// steady-state scoring through it allocates nothing.
  void ReserveWorkspace(hmm::BatchWorkspace* ws) const;

 private:
  /// MonitorTrace body against a caller-owned (reserved) workspace, so the
  /// batch path can reuse one workspace across many traces.
  std::vector<Detection> MonitorTraceInto(const runtime::Trace& trace,
                                          hmm::BatchWorkspace* ws) const;

  const ApplicationProfile* profile_;
  /// profile_->context_pairs as a sorted flat array, searched with
  /// (caller, callee) string views.
  std::vector<std::pair<std::string, std::string>> context_pairs_;
  /// CSR compilation of profile_->model, built once at construction.
  hmm::SparseHmm sparse_;
  /// Batched scoring engine over sparse_.
  hmm::BatchScorer batch_;
};

}  // namespace adprom::core

#endif  // ADPROM_CORE_DETECTION_ENGINE_H_
