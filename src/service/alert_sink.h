#ifndef ADPROM_SERVICE_ALERT_SINK_H_
#define ADPROM_SERVICE_ALERT_SINK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/flags.h"

namespace adprom::service {

/// Counters one monitored session accumulates over its lifetime. The
/// SessionManager hands the final snapshot to the AlertSink when the
/// session closes (explicitly, via idle eviction, or at shutdown).
struct SessionStats {
  size_t events_accepted = 0;  // events that entered the queue
  size_t dropped_events = 0;   // evicted by the drop-oldest policy
  size_t events_scored = 0;    // events the monitor consumed (set on close;
                               // accepted == scored + dropped, exactly)
  size_t verdicts = 0;         // windows scored (one per completed window)
  size_t alarms = 0;           // verdicts with IsAlarm()
  /// Generation of the ProfileHandle this session scored against. Pinned
  /// at session creation: a session never mixes generations.
  uint64_t profile_generation = 0;
};

/// Where streaming verdicts go. Implementations MUST be thread-safe:
/// worker threads of different sessions call OnDetection concurrently.
/// Within one session, calls arrive in window order — the SessionManager
/// never runs two workers on the same session at once. A sink must not
/// call back into the manager that delivered the verdict: the detection
/// it is handed lives in that thread's ScoringScratch.
class AlertSink {
 public:
  virtual ~AlertSink() = default;

  /// One verdict for one completed window of `session_id`.
  virtual void OnDetection(const std::string& session_id,
                           const core::Detection& detection) = 0;

  /// The session ended (close, eviction, or manager shutdown); `stats` is
  /// its final counter snapshot. Default: ignore.
  virtual void OnSessionClosed(const std::string& session_id,
                               const SessionStats& stats);
};

/// Test/batch sink: stores every verdict per session, in arrival order.
class CollectingAlertSink : public AlertSink {
 public:
  void OnDetection(const std::string& session_id,
                   const core::Detection& detection) override;
  void OnSessionClosed(const std::string& session_id,
                       const SessionStats& stats) override;

  /// The verdicts of one session, in window order (copy; thread-safe).
  std::vector<core::Detection> DetectionsFor(
      const std::string& session_id) const;
  /// Final stats of a closed session, or default-constructed if open.
  SessionStats StatsFor(const std::string& session_id) const;
  size_t closed_sessions() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<core::Detection>> detections_;
  std::map<std::string, SessionStats> closed_;
};

/// CLI sink: prints one line per alarm (or per verdict with alarms_only
/// false) and a per-session summary line on close.
class StreamAlertSink : public AlertSink {
 public:
  explicit StreamAlertSink(std::ostream* out, bool alarms_only = true)
      : out_(out), alarms_only_(alarms_only) {}

  void OnDetection(const std::string& session_id,
                   const core::Detection& detection) override;
  void OnSessionClosed(const std::string& session_id,
                       const SessionStats& stats) override;

 private:
  std::mutex mu_;
  std::ostream* out_;
  bool alarms_only_;
};

}  // namespace adprom::service

#endif  // ADPROM_SERVICE_ALERT_SINK_H_
