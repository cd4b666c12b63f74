#ifndef ADPROM_BENCH_E2E_LAYERS_H_
#define ADPROM_BENCH_E2E_LAYERS_H_

#include <cstddef>

#include "serve.h"
#include "workload.h"

namespace adprom::e2e {

/// Per-call costs of the serve path's layers, measured by feeding the
/// workload's own session events straight into each public function on
/// one thread.
struct LayerCosts {
  double decode4k_ns = 0.0;   // FrameDecoder, 4 KiB reads, per frame
  double encode_ns = 0.0;     // ApplicationProfile::Encode, per event
  double monitor_ns = 0.0;    // StreamingMonitor::OnEvents, per event
  double score_w1_ns = 0.0;   // ScoreWindows, 1 window per call, per window
  double score_w16_ns = 0.0;  // ScoreWindows, 16 windows per call
  double verdict_ns = 0.0;    // AssembleVerdict, per window
  double reload_ms = 0.0;     // Reload of every tenant, median of reps
};

/// Replays the first sessions of the stream (up to `events` events and
/// `windows` windows) through each layer. Reloads bump the tenants'
/// generations in `ctx`.
LayerCosts ReplayLayers(ServeContext* ctx, size_t events, size_t windows);

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_LAYERS_H_
