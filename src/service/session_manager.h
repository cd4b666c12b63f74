#ifndef ADPROM_SERVICE_SESSION_MANAGER_H_
#define ADPROM_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile.h"
#include "runtime/call_event.h"
#include "service/alert_sink.h"
#include "service/metrics.h"
#include "service/profile_registry.h"
#include "service/streaming_monitor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::service {

/// Tuning knobs for the streaming detection service.
struct SessionManagerOptions {
  /// Maximum buffered (not yet scored) events per session.
  size_t queue_capacity = 1024;
  /// What Submit does when a session's queue is full: kBlock stalls the
  /// producer until the worker drains space (lossless back-pressure);
  /// kDropOldest discards the oldest queued event and counts it in the
  /// session's dropped_events stat (lossy, bounded latency).
  enum class OverflowPolicy { kBlock, kDropOldest };
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Most events a drainer scores for one session before it moves on to
  /// the next ready session, bounding how long a chatty session can
  /// monopolize a pool worker. Also the upper bound on the scoring
  /// micro-batch (StreamingMonitor::ScoreBatch): whatever is queued, up
  /// to this many events, scores as one vectorized block.
  size_t batch_size = 64;
  /// Record per-submit latency into the shard histogram (two steady_clock
  /// reads per event, ~100 ns). On by default; benches that measure
  /// latency externally can turn it off.
  bool record_submit_latency = true;
};

/// What a session is bound to when it is created: which profile handle it
/// scores against (pinned for the session's whole life, so every verdict
/// is attributable to exactly one generation even across hot reloads),
/// what id the AlertSink sees, and which tenant's counters it bumps. Read
/// only by the Submit that creates the session.
struct SessionBinding {
  /// Required. The handle's engine is shared by every session bound to
  /// it.
  std::shared_ptr<const ProfileHandle> profile;
  /// What the sink sees for this session, composed once, at creation:
  /// "<display_scope>/<display_key>", or display_key alone when the scope
  /// is empty, or the session key itself when both are empty. The viewed
  /// strings need only outlive the Submit call.
  std::string_view display_scope;
  std::string_view display_key;
  /// Optional accounting hook (owned by the caller, must outlive the
  /// session).
  TenantCounters* tenant = nullptr;
};

/// Multiplexes many concurrent monitored sessions over one thread pool.
/// Each session owns a StreamingMonitor plus a bounded event queue.
/// Submit enqueues; a session that thereby becomes ready joins the
/// manager's FIFO of ready sessions and spawns a drainer task when fewer
/// than pool->num_workers() are alive. A drainer pops the session at the
/// FIFO head, scores one batch (at most batch_size events), pushes the
/// verdicts to the AlertSink, and puts the session back at the tail if
/// more events are queued. After one pass (as many sessions as were ready
/// when it began) it re-queues itself on the pool, so managers sharing a
/// pool interleave, or retires once the FIFO is empty. A session is held
/// by at most one drainer at a time, so its events score strictly in
/// submission order. Drainers use their thread's ScoringScratch, not a
/// per-session one. With a null pool every Submit that finds its session
/// idle scores it inline on the calling thread through the same
/// per-batch routine.
///
/// Each session pins the shared ProfileHandle of its SessionBinding at
/// creation and scores through that handle's engine: different sessions
/// may serve different tenants, and the per-profile engine compilation is
/// paid once per handle, not per session.
///
/// Determinism: the verdict sequence each session's sink observes is
/// bit-identical to DetectionEngine::MonitorTrace over that session's
/// event sequence, for ANY pool size — only the interleaving *across*
/// sessions varies with scheduling. (Under kDropOldest overflow the
/// scored sequence is the post-drop one, so drops trade this guarantee
/// for bounded memory; the dropped_events stat makes the loss explicit.)
class SessionManager {
 public:
  /// `sink` and `pool` must outlive the manager; a null pool scores every
  /// session inline on the submitting thread.
  SessionManager(AlertSink* sink, util::ThreadPool* pool,
                 SessionManagerOptions options = SessionManagerOptions());
  /// Closes every live session (flushing short-session verdicts).
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Routes one event (moved into the session queue) to `session_id`,
  /// creating the session bound to `binding` on first use (later submits
  /// may pass any binding with the same profile — the session keeps its
  /// creation-time pin). Fails with InvalidArgument when a new session's
  /// binding has no profile, and with FailedPrecondition if the session is
  /// concurrently being closed. May block (kBlock policy) when the session
  /// queue is full.
  util::Status Submit(const std::string& session_id,
                      const SessionBinding& binding,
                      runtime::CallEvent event);

  /// Burst submit: enqueues a copy of the whole span under one lock
  /// acquisition and at most one scheduling — per-event lock + schedule
  /// round-trips would dominate at 10k sessions. Overflow is handled per
  /// event, exactly as the per-event Submit would.
  util::Status SubmitBatch(const std::string& session_id,
                           const SessionBinding& binding,
                           std::span<const runtime::CallEvent> events);

  /// Scores the session's queued events, emits the short-session verdict
  /// (if any) and the final stats to the sink, and removes the session.
  /// Waits for no other session: if a drainer is scoring one of this
  /// session's batches it waits for that batch, then scores whatever is
  /// still queued itself. NotFound if no such session is live.
  util::Status CloseSession(const std::string& session_id);

  /// Closes every live session.
  void CloseAll();

  /// Blocks until every event queued so far on a live session has been
  /// scored, including events a Submit still in progress has queued.
  /// Sessions stay live.
  void Drain();

  /// Closes sessions whose last Submit is older than `max_idle` and whose
  /// queue has fully drained. Returns the number of sessions evicted.
  size_t EvictIdle(std::chrono::steady_clock::duration max_idle);

  size_t num_sessions() const;
  /// Total events dropped by the kDropOldest policy across all sessions,
  /// including closed ones.
  size_t total_dropped() const { return dropped_.load(); }

  /// Point-in-time ops counters for this shard. Counter totals include
  /// closed sessions; queue_depth is the live backlog right now.
  ShardMetrics Metrics() const;

 private:
  /// Where a session is in the scheduling cycle (guarded by Session::mu).
  /// Queued events imply kReady or kRunning, except after close.
  enum class State : uint8_t {
    kIdle,     // nothing queued, not in the ready FIFO
    kReady,    // in the ready FIFO (or on its way there) for a drainer
    kRunning,  // a drainer (or an inline Submit) is scoring a batch
    kClosing,  // CloseSession owns it; FIFO entries naming it are skipped
  };

  struct Session {
    explicit Session(std::shared_ptr<const ProfileHandle> handle)
        : profile(std::move(handle)),
          monitor(&profile->profile(), &profile->engine()) {}

    /// Pinned at creation; its engine scores every batch.
    std::shared_ptr<const ProfileHandle> profile;
    /// What the sink sees for this session (defaults to the session key).
    std::string display_id;
    TenantCounters* tenant = nullptr;

    std::mutex mu;
    std::condition_variable space_cv;  // kBlock producers wait for room
    std::condition_variable idle_cv;   // close waits for a running batch
    std::deque<runtime::CallEvent> queue;
    SessionStats stats;
    State state = State::kIdle;
    bool closed = false;
    std::chrono::steady_clock::time_point last_activity;
    /// Touched only by whoever holds the session in kRunning or kClosing.
    StreamingMonitor monitor;
  };

  util::Result<std::shared_ptr<Session>> GetOrCreate(
      const std::string& session_id, const SessionBinding& binding);
  /// `Event` is const CallEvent (copied into the queue) or CallEvent
  /// (moved).
  template <typename Event>
  util::Status SubmitSpan(const std::string& session_id,
                          const SessionBinding& binding,
                          std::span<Event> events);
  /// Pops the oldest queued event (kDropOldest) and counts it everywhere
  /// it must be counted. Caller holds session->mu.
  void DropOldestLocked(Session* session);
  /// Appends a session its caller just moved from kIdle to kReady to the
  /// ready FIFO, and spawns a drainer when fewer than pool_->num_workers()
  /// are alive.
  void EnqueueReady(std::shared_ptr<Session> session);
  /// A drainer task: one pass (see the class comment), then it re-queues
  /// itself while sessions are still ready, or retires.
  void RunDrainer();
  /// One drainer step on a session popped from the FIFO: scores one batch
  /// unless a closer claimed the session, and returns whether the session
  /// has more queued (then it is kReady again and must go back).
  bool ServeBatch(Session* session, ScoringScratch* scratch);
  /// Null-pool Submit: scores the session on the calling thread, batch by
  /// batch, until its queue is empty.
  void ServeInline(Session* session);
  /// The per-batch routine every path shares. Under session->mu, moves at
  /// most batch_size queued events into the scratch; then, unlocked,
  /// scores them, emits their verdicts and bumps the counters; returns
  /// with session->mu held again, the session's stats updated.
  void ScoreOneBatch(Session* session, ScoringScratch* scratch,
                     std::unique_lock<std::mutex>* lock);

  AlertSink* sink_;
  util::ThreadPool* pool_;
  SessionManagerOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  /// Lock order: mu_, then a Session::mu, then ready_mu_.
  std::mutex ready_mu_;
  /// Sessions waiting for a drainer, oldest first. An entry may name a
  /// session a closer has since claimed; drainers skip those.
  std::deque<std::shared_ptr<Session>> ready_;
  /// Drainer tasks alive (queued on the pool or running) plus inline
  /// serves in progress. Drain and the destructor wait for it to reach 0.
  /// A drainer's last touch of the manager is decrementing it and
  /// notifying drainers_cv_ inside one ready_mu_ critical section, so a
  /// destructor that reads 0 under ready_mu_ can tear the members down.
  size_t drainers_ = 0;
  std::condition_variable drainers_cv_;
  /// Submits that moved a session out of kIdle under its lock and have not
  /// yet handed it to the FIFO or to ServeInline under ready_mu_. Drain
  /// waits for it to reach 0 too.
  std::atomic<size_t> handoffs_{0};

  // Shard-level ops counters (see ShardMetrics).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> scored_{0};
  std::atomic<uint64_t> verdicts_{0};
  std::atomic<uint64_t> alarms_{0};
  std::atomic<size_t> queue_depth_{0};
  std::atomic<size_t> max_queue_depth_{0};
  LatencyHistogram submit_latency_;
};

}  // namespace adprom::service

#endif  // ADPROM_SERVICE_SESSION_MANAGER_H_
