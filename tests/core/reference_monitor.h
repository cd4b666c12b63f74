#ifndef ADPROM_TESTS_CORE_REFERENCE_MONITOR_H_
#define ADPROM_TESTS_CORE_REFERENCE_MONITOR_H_

#include <vector>

#include "core/detection_engine.h"
#include "core/profile.h"
#include "hmm/inference.h"
#include "runtime/call_event.h"

namespace adprom::core::testing {

/// The dense scalar reference for DetectionEngine::MonitorTrace: the same
/// sliding windows and the same verdict assembly, with every window
/// re-encoded and scored alone by hmm::PerSymbolLogLikelihood on the dense
/// model. The differential suites compare the batched engine, the
/// streaming monitor, the session manager and the fleet node against it.
inline std::vector<Detection> ReferenceMonitorTrace(
    const DetectionEngine& engine, const ApplicationProfile& profile,
    const runtime::Trace& trace) {
  std::vector<Detection> out;
  const auto windows = SlidingWindows(trace, profile.options.window_length);
  for (size_t i = 0; i < windows.size(); ++i) {
    const hmm::ObservationSeq seq = profile.Encode(windows[i]);
    const auto score = hmm::PerSymbolLogLikelihood(profile.model, seq);
    out.push_back(engine.AssembleVerdict(windows[i], seq, i,
                                         score.ok() ? *score : -1e9));
  }
  return out;
}

/// ReferenceMonitorTrace over every trace.
inline std::vector<std::vector<Detection>> ReferenceMonitorTraces(
    const DetectionEngine& engine, const ApplicationProfile& profile,
    const std::vector<runtime::Trace>& traces) {
  std::vector<std::vector<Detection>> out;
  out.reserve(traces.size());
  for (const runtime::Trace& trace : traces) {
    out.push_back(ReferenceMonitorTrace(engine, profile, trace));
  }
  return out;
}

}  // namespace adprom::core::testing

#endif  // ADPROM_TESTS_CORE_REFERENCE_MONITOR_H_
