#ifndef ADPROM_BENCH_E2E_WORKLOAD_H_
#define ADPROM_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "build.h"
#include "core/flags.h"
#include "core/profile.h"
#include "runtime/call_event.h"
#include "util/thread_pool.h"

namespace adprom::e2e {

/// How the session traffic of a serve workload is shaped.
struct TrafficShape {
  size_t lanes = 0;               // sessions open at any time
  size_t min_session_events = 0;  // session length, uniform in [min, max]
  size_t max_session_events = 0;
  size_t stream_events = 0;       // events in one pass over the stream
};

/// The pre-encoded ADPF frame stream a serve workload replays, plus what
/// the benchmark needs to check and time it. The stream is one "lap":
/// every session it opens it also ends, so a phase that needs more
/// events replays it from the start and the session keys are reused by
/// fresh sessions.
///
/// Frames carry an *ordinal*: the number of event frames before them in
/// the lap. The open-loop schedule makes a frame due at ordinal / rate
/// after the phase starts, so an end frame is due together with the event
/// that follows it.
struct Stream {
  size_t window_length = 0;
  std::vector<std::string> tenant_names;

  // Sessions. Session s's key on the wire is "s<s>".
  std::vector<uint32_t> session_tenant;
  /// Frames of session s: session_frames[session_begin[s] ..
  /// session_begin[s + 1]), its event frames in order, then its end frame.
  std::vector<uint32_t> session_begin;
  std::vector<uint32_t> session_frames;
  /// The events behind session s's event frames (pointers into the
  /// tenants' traces or into attack_material; kept for the reference and
  /// the layer replay).
  std::vector<std::vector<const runtime::CallEvent*>> session_events;
  /// Per tenant, the attack traces attack sessions splice in.
  std::shared_ptr<const std::vector<std::vector<runtime::Trace>>>
      attack_material;

  // Frames.
  std::string bytes;                 // every frame, back to back
  std::vector<uint64_t> frame_end;   // byte offset just past frame f
  std::vector<uint32_t> frame_session;
  std::vector<uint32_t> frame_ordinal;
  size_t events = 0;                 // event frames per lap

  // Reference verdicts, indexed by the frame whose arrival completes
  // them: the last event of the window, or the end frame for a session
  // shorter than one window. 0 = no verdict completes at this frame.
  std::vector<uint64_t> ref_digest;
  std::vector<uint8_t> ref_flag;  // core::DetectionFlag of that verdict

  size_t frames() const { return frame_end.size(); }
  size_t sessions() const { return session_tenant.size(); }
  size_t session_events_count(size_t s) const {
    return session_begin[s + 1] - session_begin[s] - 1;
  }
  /// The frame a verdict for window `window_start` of session `s`
  /// completes at, or SIZE_MAX when the session has no such window.
  size_t VerdictFrame(size_t s, size_t window_start) const;
};

/// The digest a verdict is checked by: flag, score bits, window_start and
/// source tables. Never 0.
uint64_t VerdictDigest(const core::Detection& detection);

/// Generates the session traffic of a workload from `seed`: sessions cut
/// from each tenant's recorded traces, 2% of them carrying the tenant's
/// attack (App_b: the Attack 5 run; other apps: A-S2 synthetic windows),
/// interleaved across `lanes` concurrent sessions and framed in ADPF. When
/// the shape's min and max session length are equal, every session has
/// exactly that many events.
Stream GenerateStream(const std::vector<Tenant>& tenants,
                      const TrafficShape& shape, size_t window_length,
                      uint64_t seed);

/// Fills ref_digest/ref_flag with DetectionEngine::MonitorTrace over each
/// session's events, fanned across `pool`.
void ComputeReference(const std::vector<core::ApplicationProfile>& profiles,
                      util::ThreadPool* pool, Stream* stream);

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_WORKLOAD_H_
