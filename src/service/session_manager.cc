#include "service/session_manager.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

namespace adprom::service {

SessionManager::SessionManager(AlertSink* sink, util::ThreadPool* pool,
                               SessionManagerOptions options)
    : sink_(sink), pool_(pool), options_(options) {
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
}

SessionManager::~SessionManager() {
  CloseAll();
  // Closing waits only for each session's running batch; drainers may
  // still be queued on the pool or finishing a pass over stale FIFO
  // entries. A drainer decrements drainers_ and notifies in one ready_mu_
  // critical section, so reading 0 here under ready_mu_ means no drainer
  // will touch ready_mu_ or drainers_cv_ again.
  std::unique_lock<std::mutex> lock(ready_mu_);
  drainers_cv_.wait(lock, [&] { return drainers_ == 0; });
}

util::Result<std::shared_ptr<SessionManager::Session>>
SessionManager::GetOrCreate(const std::string& session_id,
                            const SessionBinding& binding) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) return it->second;
  if (binding.profile == nullptr) {
    return util::Status::InvalidArgument(
        "session binding has no profile handle: " + session_id);
  }
  auto session = std::make_shared<Session>(binding.profile);
  std::string& display = session->display_id;
  if (!binding.display_scope.empty()) {
    display.append(binding.display_scope).push_back('/');
  }
  display.append(binding.display_key);
  if (display.empty()) display = session_id;
  session->tenant = binding.tenant;
  session->stats.profile_generation = session->profile->generation();
  if (session->tenant != nullptr) {
    session->tenant->sessions_opened.fetch_add(1, std::memory_order_relaxed);
  }
  session->last_activity = std::chrono::steady_clock::now();
  sessions_[session_id] = session;
  return session;
}

void SessionManager::DropOldestLocked(Session* session) {
  session->queue.pop_front();
  ++session->stats.dropped_events;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  if (session->tenant != nullptr) {
    session->tenant->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionManager::EnqueueReady(std::shared_ptr<Session> session) {
  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.push_back(std::move(session));
    handoffs_.fetch_sub(1, std::memory_order_relaxed);
    if (drainers_ < pool_->num_workers()) {
      ++drainers_;
      spawn = true;
    }
  }
  if (spawn) pool_->Submit([this] { RunDrainer(); });
}

util::Status SessionManager::Submit(const std::string& session_id,
                                    const SessionBinding& binding,
                                    runtime::CallEvent event) {
  return SubmitSpan(session_id, binding,
                    std::span<runtime::CallEvent>(&event, 1));
}

util::Status SessionManager::SubmitBatch(
    const std::string& session_id, const SessionBinding& binding,
    std::span<const runtime::CallEvent> events) {
  return SubmitSpan(session_id, binding, events);
}

template <typename Event>
util::Status SessionManager::SubmitSpan(const std::string& session_id,
                                        const SessionBinding& binding,
                                        std::span<Event> events) {
  if (events.empty()) return util::Status::Ok();
  const auto start = std::chrono::steady_clock::now();
  ADPROM_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                          GetOrCreate(session_id, binding));
  bool run_inline = false;
  bool became_ready = false;
  bool waited = false;
  {
    std::unique_lock<std::mutex> lock(session->mu);
    if (session->closed) {
      return util::Status::FailedPrecondition("session closed: " +
                                              session_id);
    }
    for (Event& event : events) {
      if (session->queue.size() >= options_.queue_capacity) {
        if (options_.overflow ==
            SessionManagerOptions::OverflowPolicy::kBlock) {
          // A burst bigger than the queue must get the session scheduled
          // before it waits for a drainer to make room.
          if (session->state == State::kIdle && pool_ != nullptr) {
            session->state = State::kReady;
            handoffs_.fetch_add(1, std::memory_order_relaxed);
            EnqueueReady(session);
          }
          waited = true;
          session->space_cv.wait(lock, [&] {
            return session->queue.size() < options_.queue_capacity ||
                   session->closed;
          });
          if (session->closed) {
            return util::Status::FailedPrecondition("session closed: " +
                                                    session_id);
          }
        } else {
          DropOldestLocked(session.get());
        }
      }
      // Moves a mutable event; copies a const one.
      session->queue.push_back(std::move(event));
      ++session->stats.events_accepted;
      queue_depth_.fetch_add(1, std::memory_order_relaxed);
    }
    // The entry clock read is stale only if a kBlock wait ran, and then a
    // session that just received events must not look idle to EvictIdle.
    session->last_activity = waited ? std::chrono::steady_clock::now() : start;
    if (session->state == State::kIdle) {
      // Counted until the session reaches the FIFO or ServeInline, so a
      // concurrent Drain cannot miss these events in between.
      handoffs_.fetch_add(1, std::memory_order_relaxed);
      if (pool_ != nullptr) {
        session->state = State::kReady;
        became_ready = true;
      } else {
        session->state = State::kRunning;
        run_inline = true;
      }
    }
  }
  // High-water mark of the shard-wide backlog gauge (CAS-max; relaxed is
  // fine for an ops counter).
  size_t depth = queue_depth_.load(std::memory_order_relaxed);
  size_t high = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > high && !max_queue_depth_.compare_exchange_weak(
                             high, depth, std::memory_order_relaxed)) {
  }
  submitted_.fetch_add(events.size(), std::memory_order_relaxed);
  if (session->tenant != nullptr) {
    session->tenant->submitted.fetch_add(events.size(),
                                         std::memory_order_relaxed);
  }
  if (run_inline) ServeInline(session.get());
  // Outside session->mu, so a drainer never waits on this session while
  // the FIFO lock is contended. Until the push the session is kReady but
  // in no FIFO (handoffs_ counts it); a closer claiming it meanwhile
  // leaves a stale entry that drainers skip.
  if (became_ready) EnqueueReady(std::move(session));
  if (options_.record_submit_latency) {
    submit_latency_.RecordNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return util::Status::Ok();
}

void SessionManager::ScoreOneBatch(Session* session, ScoringScratch* scratch,
                                   std::unique_lock<std::mutex>* lock) {
  const size_t take = std::min(options_.batch_size, session->queue.size());
  scratch->batch.clear();
  for (size_t i = 0; i < take; ++i) {
    scratch->batch.push_back(std::move(session->queue.front()));
    session->queue.pop_front();
  }
  lock->unlock();
  queue_depth_.fetch_sub(take, std::memory_order_relaxed);
  session->space_cv.notify_all();
  // Micro-batch: every window these events complete is scored in one
  // vectorized pass. The batch is exactly what was already queued — the
  // drainer never waits for more events, so batch formation adds no
  // delay beyond queue latency.
  const std::span<const core::Detection> verdicts =
      session->monitor.ScoreBatch(scratch->batch, scratch);
  size_t alarm_count = 0;
  for (const core::Detection& verdict : verdicts) {
    if (verdict.IsAlarm()) ++alarm_count;
    sink_->OnDetection(session->display_id, verdict);
  }
  scored_.fetch_add(take, std::memory_order_relaxed);
  verdicts_.fetch_add(verdicts.size(), std::memory_order_relaxed);
  alarms_.fetch_add(alarm_count, std::memory_order_relaxed);
  if (session->tenant != nullptr) {
    session->tenant->scored.fetch_add(take, std::memory_order_relaxed);
    session->tenant->verdicts.fetch_add(verdicts.size(),
                                        std::memory_order_relaxed);
    session->tenant->alarms.fetch_add(alarm_count, std::memory_order_relaxed);
  }
  lock->lock();
  session->stats.verdicts += verdicts.size();
  session->stats.alarms += alarm_count;
}

void SessionManager::RunDrainer() {
  ScoringScratch& scratch = ThreadScoringScratch();
  // One pass serves as many sessions as were ready when it began, one
  // batch each, and one at a time, so no drainer holds a session another
  // idle drainer could take. The session served last goes back to the
  // tail, if it has more queued, under the same ready_mu_ acquisition
  // that pops the next one.
  std::shared_ptr<Session> session;
  size_t pass = 0;
  for (bool first = true;; first = false) {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      if (session != nullptr) ready_.push_back(std::move(session));
      if (ready_.empty()) {
        --drainers_;
        drainers_cv_.notify_all();
        return;
      }
      if (first) pass = ready_.size();
      if (pass == 0) break;
      --pass;
      session = std::move(ready_.front());
      ready_.pop_front();
    }
    if (!ServeBatch(session.get(), &scratch)) session.reset();
  }
  // Yield the worker between passes, so drainers of managers sharing the
  // pool (fleet shards) and other pool tasks interleave with this one.
  pool_->Submit([this] { RunDrainer(); });
}

bool SessionManager::ServeBatch(Session* session, ScoringScratch* scratch) {
  std::unique_lock<std::mutex> lock(session->mu);
  if (session->state != State::kReady) return false;  // claimed by a closer
  session->state = State::kRunning;
  ScoreOneBatch(session, scratch, &lock);
  if (session->closed) {
    // The closer is waiting on this batch; it scores the rest.
    session->state = State::kIdle;
    session->idle_cv.notify_all();
    return false;
  }
  if (session->queue.empty()) {
    session->state = State::kIdle;
    return false;
  }
  session->state = State::kReady;  // the drainer puts it back in the FIFO
  return true;
}

void SessionManager::ServeInline(Session* session) {
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ++drainers_;
    handoffs_.fetch_sub(1, std::memory_order_relaxed);
  }
  ScoringScratch& scratch = ThreadScoringScratch();
  {
    std::unique_lock<std::mutex> lock(session->mu);
    do {
      ScoreOneBatch(session, &scratch, &lock);
    } while (!session->queue.empty() && !session->closed);
    session->state = State::kIdle;
    if (session->closed) session->idle_cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(ready_mu_);
  --drainers_;
  drainers_cv_.notify_all();
}

util::Status SessionManager::CloseSession(const std::string& session_id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("no session: " + session_id);
    }
    session = it->second;
    sessions_.erase(it);
  }
  std::optional<core::Detection> last;
  SessionStats stats;
  {
    std::unique_lock<std::mutex> lock(session->mu);
    session->closed = true;
    session->space_cv.notify_all();  // wake blocked producers -> error
    // Wait for a batch already being scored, never for the ready FIFO:
    // whatever is still queued is scored right here.
    session->idle_cv.wait(lock,
                          [&] { return session->state != State::kRunning; });
    session->state = State::kClosing;
    ScoringScratch& scratch = ThreadScoringScratch();
    while (!session->queue.empty()) {
      ScoreOneBatch(session.get(), &scratch, &lock);
    }
    last = session->monitor.Finish();
    if (last.has_value()) {
      ++session->stats.verdicts;
      if (last->IsAlarm()) ++session->stats.alarms;
    }
    session->stats.events_scored = session->monitor.events_seen();
    stats = session->stats;
  }
  if (last.has_value()) {
    verdicts_.fetch_add(1, std::memory_order_relaxed);
    if (last->IsAlarm()) alarms_.fetch_add(1, std::memory_order_relaxed);
    if (session->tenant != nullptr) {
      session->tenant->verdicts.fetch_add(1, std::memory_order_relaxed);
      if (last->IsAlarm()) {
        session->tenant->alarms.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sink_->OnDetection(session->display_id, *last);
  }
  if (session->tenant != nullptr) {
    session->tenant->sessions_closed.fetch_add(1, std::memory_order_relaxed);
  }
  sink_->OnSessionClosed(session->display_id, stats);
  return util::Status::Ok();
}

void SessionManager::CloseAll() {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) ids.push_back(id);
  }
  for (const std::string& id : ids) {
    (void)CloseSession(id);  // NotFound = racing closer won; fine
  }
}

void SessionManager::Drain() {
  // Every event queued on a live session belongs to a session that is in
  // the ready FIFO, held by a drainer, or being handed to one of them
  // (handoffs_), and the FIFO is never left without a drainer. A handoff
  // completes under ready_mu_ and leaves drainers_ above 0, so the last
  // drainer's retirement wakes this wait even if a handoff landed in it.
  std::unique_lock<std::mutex> lock(ready_mu_);
  drainers_cv_.wait(lock, [&] {
    return drainers_ == 0 && handoffs_.load(std::memory_order_relaxed) == 0;
  });
}

size_t SessionManager::EvictIdle(
    std::chrono::steady_clock::duration max_idle) {
  const auto cutoff = std::chrono::steady_clock::now() - max_idle;
  std::vector<std::string> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, session] : sessions_) {
      std::lock_guard<std::mutex> session_lock(session->mu);
      if (session->queue.empty() && session->state == State::kIdle &&
          session->last_activity <= cutoff) {
        idle.push_back(id);
      }
    }
  }
  size_t evicted = 0;
  for (const std::string& id : idle) {
    if (CloseSession(id).ok()) ++evicted;
  }
  return evicted;
}

size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

ShardMetrics SessionManager::Metrics() const {
  ShardMetrics out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.dropped = dropped_.load(std::memory_order_relaxed);
  out.scored = scored_.load(std::memory_order_relaxed);
  out.verdicts = verdicts_.load(std::memory_order_relaxed);
  out.alarms = alarms_.load(std::memory_order_relaxed);
  out.live_sessions = num_sessions();
  out.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  out.submit_p50_us = submit_latency_.QuantileUs(0.5);
  out.submit_p99_us = submit_latency_.QuantileUs(0.99);
  return out;
}

}  // namespace adprom::service
