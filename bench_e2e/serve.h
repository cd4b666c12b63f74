#ifndef ADPROM_BENCH_E2E_SERVE_H_
#define ADPROM_BENCH_E2E_SERVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/frame_codec.h"
#include "service/alert_sink.h"
#include "service/fleet_node.h"
#include "service/profile_registry.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace adprom::e2e {

/// The benchmark-owned AlertSink. It stamps each verdict on arrival into
/// a preallocated slot — the frame position whose arrival completed the
/// window — together with the verdict's digest; checking against the
/// reference happens after the phase, off the timed path.
class VerdictSink : public service::AlertSink {
 public:
  /// Allocates (and touches) slots for phases of up to `max_positions`
  /// frame positions, so no phase grows the process's memory on the
  /// benchmark's behalf.
  VerdictSink(const Stream* stream, size_t max_positions);

  /// Clears the slots for a phase of `positions` frame positions.
  void Reset(size_t positions);
  size_t positions() const { return positions_; }

  void OnDetection(const std::string& session_id,
                   const core::Detection& detection) override;
  void OnSessionClosed(const std::string& session_id,
                       const service::SessionStats& stats) override;

  // Per stream session, written by the ingest thread before the session's
  // first Submit (the session mutex orders it before any worker read).
  std::vector<uint64_t> lap_base;  // phase position of the lap's frame 0
  std::vector<uint64_t> expected_generation;

  // Per phase frame position, valid below positions().
  std::vector<int64_t> arrival_ns;  // 0 = no verdict arrived
  std::vector<uint64_t> digest;

  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> errors{0};
  /// Ingest-thread only (sessions close on the ingest thread).
  uint64_t closed_wrong_generation = 0;
  uint64_t closed_with_drops = 0;
  /// Off while the benchmark closes sessions a phase cut short: their
  /// short-session verdicts have no reference and are not stamped.
  bool checking = true;
  SpanRecorder* spans = nullptr;

 private:
  const Stream* stream_;
  size_t positions_ = 0;
};

/// The phase position of the first frame whose ordinal (events before it,
/// counting earlier laps) is >= `ordinal`.
uint64_t PositionOfOrdinal(const Stream& stream, uint64_t ordinal);

/// The node configuration every serve phase and start-up uses: 1 shard,
/// kBlock overflow, a queue of 1024 events per session.
service::FleetOptions ServeFleetOptions();

/// What every phase of one serve run shares.
struct ServeContext {
  const Stream* stream = nullptr;
  service::ProfileRegistry* registry = nullptr;
  VerdictSink* sink = nullptr;
  Tally* tally = nullptr;
  /// Per tenant: the serialized profile (reload source) and the
  /// generation the registry should be serving, mirrored locally.
  std::vector<std::string> profile_texts;
  std::vector<uint64_t> generation;
  /// Tenant the ingest thread reloads every reload_period_ns (-1 = none).
  int reload_tenant = -1;
  int64_t reload_period_ns = 0;
  /// Where a measured open loop records each event's ingest lag and Submit
  /// duration. The owner allocates and touches them up front, so that no
  /// phase grows the process's memory on the benchmark's behalf.
  std::vector<int64_t> lag_ns;
  std::vector<int64_t> submit_ns;
};

/// One serve phase: a fresh FleetNode (1 shard, kBlock, queue 1024) over
/// `pool` (null = inline scoring), fed the stream from its start by the
/// calling thread — the ingest thread — in reads of at most 64 KiB, the
/// way `adprom serve --format=binary` feeds its node.
class Phase {
 public:
  static constexpr size_t kReadBytes = 64 * 1024;

  /// The phase feeds at most `max_events` events in total.
  Phase(ServeContext* ctx, util::ThreadPool* pool, size_t max_events,
        SpanRecorder* spans = nullptr);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Closed loop: feeds the next `events` events, each read as soon as the
  /// previous one has been submitted, then drains. Returns the seconds
  /// from the first Feed to the return of Drain.
  double RunClosed(uint64_t events);

  struct OpenResult {
    bool aborted = false;       // ingest fell more than the limit behind
    int64_t schedule_end_ns = 0;
    int64_t drained_ns = 0;     // when Drain returned
  };
  /// Open loop: feeds the next `events` events on a schedule of `rate`
  /// events/s starting now, then drains. With `measure`, records every
  /// event's ingest lag and Submit duration, and marks these frames as
  /// the ones Latencies() reports. Gives up once ingest runs more than
  /// `max_lag_ns` behind schedule.
  OpenResult RunOpen(uint64_t events, double rate, bool measure,
                     int64_t max_lag_ns);

  /// Closes the sessions the phase left open, unchecked: a session cut
  /// short gets a short-session verdict no reference has. Returns how
  /// many it closed.
  uint64_t CloseOpenSessions();

  /// Checks every verdict of the frames submitted against the reference
  /// (failures go to the tally). Returns the number of verdicts checked.
  uint64_t Verify();

  /// Event→verdict latency of the frames of the last open segment, which
  /// must have been measured: verdict arrival minus the due time of the
  /// frame that completed the window.
  std::vector<int64_t> Latencies() const;
  /// Verdict counts by flag over the measured frames.
  struct FlagCounts {
    uint64_t verdicts = 0;
    uint64_t alarms = 0;
    uint64_t data_leaks = 0;
  };
  FlagCounts MeasuredFlags() const;

  const std::vector<int64_t>& lag_ns() const { return lag_ns_; }
  const std::vector<int64_t>& submit_ns() const { return submit_ns_; }
  uint64_t events_submitted() const { return events_submitted_; }
  uint64_t frames_decoded() const { return pos_; }
  service::FleetNode& node() { return *node_; }

 private:
  /// Absolute ordinal (events before it, counting earlier laps) of the
  /// frame at phase position p.
  uint64_t OrdinalAt(uint64_t p) const;
  uint64_t ByteEnd(uint64_t p) const;  // absolute stream byte past p
  /// When frame p is due on the current open-loop schedule.
  int64_t Due(uint64_t p) const;
  /// Feeds stream bytes up to absolute byte `target` in one read of at
  /// most kReadBytes (never across a lap end), then decodes and handles
  /// every complete frame. False once the decoder is poisoned.
  bool ReadOnce(uint64_t target);
  void HandleFrame(runtime::Frame* frame);
  void MaybeReload(int64_t now);

  ServeContext* ctx_;
  const Stream& stream_;
  SpanRecorder* spans_;
  runtime::FrameDecoder decoder_;
  std::unique_ptr<service::FleetNode> node_;
  std::vector<uint8_t> open_;  // per stream session

  uint64_t pos_ = 0;        // next phase position to decode
  uint64_t fed_bytes_ = 0;  // absolute stream bytes fed so far
  uint64_t events_submitted_ = 0;
  int64_t next_reload_ns_ = 0;

  // Schedule of the last open loop.
  bool measuring_ = false;
  int64_t open_t0_ = 0;
  uint64_t open_ordinal0_ = 0;
  double ns_per_event_ = 0.0;
  std::vector<int64_t>& lag_ns_;     // ctx_->lag_ns
  std::vector<int64_t>& submit_ns_;  // ctx_->submit_ns

  // The measured open segment.
  uint64_t measured_begin_ = 0;
  uint64_t measured_end_ = 0;
};

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_SERVE_H_
