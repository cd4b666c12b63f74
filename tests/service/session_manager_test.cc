// SessionManager behavior tests on a tiny hand-built profile, every
// session bound to one shared ProfileHandle: inline (null-pool) scoring,
// the two overflow policies, close/flush semantics, idle eviction, and the
// per-session stats handed to the AlertSink.

#include "service/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detection_engine.h"
#include "hmm/hmm_model.h"
#include "service/alert_sink.h"
#include "service/profile_registry.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace adprom::service {
namespace {

using core::Detection;

/// A 2-state profile over {print, scan} with window length 3; threshold
/// low enough that in-alphabet traffic never alarms. Small on purpose:
/// these tests exercise queueing, not detection quality.
core::ApplicationProfile MakeTinyProfile(size_t window_length = 3) {
  core::ApplicationProfile profile;
  profile.options.window_length = window_length;
  profile.options.use_dd_labels = false;
  profile.alphabet.Intern("print");
  profile.alphabet.Intern("scan");
  profile.model = hmm::HmmModel(
      util::Matrix::FromRows({{0.7, 0.3}, {0.4, 0.6}}),
      util::Matrix::FromRows({{0.2, 0.5, 0.3}, {0.2, 0.3, 0.5}}),
      {0.5, 0.5});
  profile.threshold = -100.0;
  profile.context_pairs.insert({"main", "print"});
  profile.context_pairs.insert({"main", "scan"});
  return profile;
}

/// Deterministic event stream: event i is print/scan alternating.
runtime::CallEvent Ev(int i) {
  runtime::CallEvent event;
  event.callee = (i % 2 == 0) ? "print" : "scan";
  event.caller = "main";
  event.block_id = i;
  return event;
}

runtime::Trace MakeTrace(int first, int count) {
  runtime::Trace trace;
  for (int i = 0; i < count; ++i) trace.push_back(Ev(first + i));
  return trace;
}

/// A binding to a handle that owns a copy of `profile`: every session
/// bound to it scores through the handle's one engine.
SessionBinding Bind(const core::ApplicationProfile& profile) {
  SessionBinding binding;
  binding.profile =
      std::make_shared<const ProfileHandle>("tiny", "inline", 1, profile);
  return binding;
}

void ExpectSameDetections(const std::vector<Detection>& expected,
                          const std::vector<Detection>& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].flag, actual[i].flag) << label << " " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " " << i;
    EXPECT_EQ(expected[i].window_start, actual[i].window_start)
        << label << " " << i;
  }
}

TEST(SessionManagerTest, NullPoolScoresInlineAndMatchesBatch) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  SessionManager manager(&sink, /*pool=*/nullptr);

  const runtime::Trace trace = MakeTrace(0, 10);
  for (const runtime::CallEvent& event : trace) {
    ASSERT_TRUE(manager.Submit("s", binding, event).ok());
  }
  // Null pool = synchronous: verdicts are already in the sink.
  ExpectSameDetections(engine.MonitorTrace(trace), sink.DetectionsFor("s"),
                       "inline");
  ASSERT_TRUE(manager.CloseSession("s").ok());
  const SessionStats stats = sink.StatsFor("s");
  EXPECT_EQ(stats.events_accepted, 10u);
  EXPECT_EQ(stats.verdicts, 8u);  // 10 events, window 3
  EXPECT_EQ(stats.dropped_events, 0u);
  EXPECT_EQ(manager.num_sessions(), 0u);
}

TEST(SessionManagerTest, DropOldestKeepsTailAndCountsDrops) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(1);
  // Park the pool's only worker so the session queue can actually fill.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  SessionManagerOptions options;
  options.queue_capacity = 4;
  options.overflow = SessionManagerOptions::OverflowPolicy::kDropOldest;
  SessionManager manager(&sink, &pool, options);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(manager.Submit("s", binding, Ev(i)).ok());
  }
  EXPECT_EQ(manager.total_dropped(), 6u);

  gate.set_value();
  manager.Drain();
  // The monitor saw exactly the surviving tail, events 6..9.
  ExpectSameDetections(engine.MonitorTrace(MakeTrace(6, 4)),
                       sink.DetectionsFor("s"), "post-drop tail");
  ASSERT_TRUE(manager.CloseSession("s").ok());
  const SessionStats stats = sink.StatsFor("s");
  EXPECT_EQ(stats.events_accepted, 10u);
  EXPECT_EQ(stats.dropped_events, 6u);
  EXPECT_EQ(stats.verdicts, 2u);  // 4 surviving events, window 3
}

TEST(SessionManagerTest, BlockPolicyStallsProducerUntilDrained) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  SessionManagerOptions options;
  options.queue_capacity = 2;
  options.overflow = SessionManagerOptions::OverflowPolicy::kBlock;
  SessionManager manager(&sink, &pool, options);

  ASSERT_TRUE(manager.Submit("s", binding, Ev(0)).ok());
  // The queue is now full.
  ASSERT_TRUE(manager.Submit("s", binding, Ev(1)).ok());

  std::atomic<bool> third_submitted{false};
  std::thread producer([&] {
    ASSERT_TRUE(manager.Submit("s", binding, Ev(2)).ok());
    third_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load())
      << "kBlock producer got through a full queue";

  gate.set_value();  // worker drains, making room
  producer.join();
  EXPECT_TRUE(third_submitted.load());
  manager.Drain();
  // Lossless: all three events scored, in order.
  ExpectSameDetections(engine.MonitorTrace(MakeTrace(0, 3)),
                       sink.DetectionsFor("s"), "block policy");
  EXPECT_EQ(manager.total_dropped(), 0u);
}

TEST(SessionManagerTest, CloseFlushesShortSessionVerdict) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  SessionManager manager(&sink, nullptr);

  const runtime::Trace trace = MakeTrace(0, 2);  // shorter than window 3
  for (const runtime::CallEvent& event : trace) {
    ASSERT_TRUE(manager.Submit("s", binding, event).ok());
  }
  EXPECT_TRUE(sink.DetectionsFor("s").empty()) << "window never completed";
  ASSERT_TRUE(manager.CloseSession("s").ok());
  // Close scores the whole short session as one window, like batch does.
  ExpectSameDetections(engine.MonitorTrace(trace), sink.DetectionsFor("s"),
                       "short flush");
  const SessionStats stats = sink.StatsFor("s");
  EXPECT_EQ(stats.events_accepted, 2u);
  EXPECT_EQ(stats.verdicts, 1u);
}

TEST(SessionManagerTest, CloseIsTerminalButIdsAreReusable) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  CollectingAlertSink sink;
  SessionManager manager(&sink, nullptr);

  EXPECT_FALSE(manager.CloseSession("ghost").ok());

  ASSERT_TRUE(manager.Submit("s", binding, Ev(0)).ok());
  ASSERT_TRUE(manager.CloseSession("s").ok());
  EXPECT_FALSE(manager.CloseSession("s").ok()) << "double close";
  EXPECT_EQ(manager.num_sessions(), 0u);

  // A new session may reuse the id; it starts from scratch.
  ASSERT_TRUE(manager.Submit("s", binding, Ev(0)).ok());
  EXPECT_EQ(manager.num_sessions(), 1u);
  ASSERT_TRUE(manager.CloseSession("s").ok());
  EXPECT_EQ(sink.StatsFor("s").events_accepted, 1u);
}

TEST(SessionManagerTest, EvictIdleClosesOnlyDrainedIdleSessions) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  CollectingAlertSink sink;
  SessionManager manager(&sink, nullptr);

  ASSERT_TRUE(manager.Submit("a", binding, Ev(0)).ok());
  ASSERT_TRUE(manager.Submit("b", binding, Ev(1)).ok());
  EXPECT_EQ(manager.num_sessions(), 2u);

  // Nothing is older than an hour: nobody goes.
  EXPECT_EQ(manager.EvictIdle(std::chrono::hours(1)), 0u);
  EXPECT_EQ(manager.num_sessions(), 2u);

  // With a zero grace period both drained sessions are evicted (and
  // flushed through the sink like an explicit close).
  EXPECT_EQ(manager.EvictIdle(std::chrono::seconds(0)), 2u);
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(sink.closed_sessions(), 2u);
  EXPECT_EQ(sink.StatsFor("a").verdicts, 1u);  // short-session flush
}

TEST(SessionManagerTest, EvictIdleSparesSessionsWithQueuedWork) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  SessionManager manager(&sink, &pool);
  ASSERT_TRUE(manager.Submit("busy", binding, Ev(0)).ok());
  // The event is still queued behind the parked worker: not evictable.
  EXPECT_EQ(manager.EvictIdle(std::chrono::seconds(0)), 0u);
  EXPECT_EQ(manager.num_sessions(), 1u);

  gate.set_value();
  manager.Drain();
  EXPECT_EQ(manager.EvictIdle(std::chrono::seconds(0)), 1u);
  EXPECT_EQ(manager.num_sessions(), 0u);
}

TEST(SessionManagerTest, EvictIdleDatesABlockedSubmitFromItsQueuedEvents) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  SessionManagerOptions options;
  options.queue_capacity = 1;
  options.overflow = SessionManagerOptions::OverflowPolicy::kBlock;
  SessionManager manager(&sink, &pool, options);
  // The queue is now full.
  ASSERT_TRUE(manager.Submit("s", binding, Ev(0)).ok());

  // The producer waits far longer than the grace period below before its
  // event is queued; the session's activity dates from the queueing.
  std::thread producer(
      [&] { ASSERT_TRUE(manager.Submit("s", binding, Ev(1)).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  gate.set_value();
  producer.join();
  manager.Drain();
  EXPECT_EQ(manager.EvictIdle(std::chrono::milliseconds(300)), 0u)
      << "a session that just received events was evicted as idle";
  EXPECT_EQ(manager.num_sessions(), 1u);
}

TEST(SessionManagerTest, CloseAllFlushesEverySession) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(2);
  SessionManager manager(&sink, &pool);

  constexpr int kSessions = 6;
  constexpr int kEvents = 25;
  for (int e = 0; e < kEvents; ++e) {
    for (int s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(manager
                      .Submit("s" + std::to_string(s), binding,
                              Ev(s * 100 + e))
                      .ok());
    }
  }
  manager.CloseAll();
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(sink.closed_sessions(), static_cast<size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    const std::string id = "s" + std::to_string(s);
    ExpectSameDetections(engine.MonitorTrace(MakeTrace(s * 100, kEvents)),
                         sink.DetectionsFor(id), id);
    EXPECT_EQ(sink.StatsFor(id).events_accepted,
              static_cast<size_t>(kEvents));
  }
}

/// Records which session each verdict belonged to, in arrival order.
class OrderSink : public AlertSink {
 public:
  void OnDetection(const std::string& session_id,
                   const Detection& /*detection*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(session_id);
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> order_;
};

TEST(SessionManagerTest, BatchSizeBoundsHowLongOneSessionHoldsAWorker) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  OrderSink sink;
  util::ThreadPool pool(1);
  // Park the only worker so both sessions are queued before any scoring.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  SessionManagerOptions options;
  options.batch_size = 4;
  options.queue_capacity = 64;
  SessionManager manager(&sink, &pool, options);
  // A chatty session with ten batches queued, then one full window of B.
  for (int i = 0; i < 10 * 4; ++i) {
    ASSERT_TRUE(manager.Submit("a", binding, Ev(i)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.Submit("b", binding, Ev(i)).ok());
  }
  gate.set_value();
  manager.Drain();

  // A gets one batch, then goes back behind B: B's verdict must not wait
  // for the rest of A's backlog.
  const std::vector<std::string> order = sink.order();
  ASSERT_EQ(order.size(), 38u + 1u);  // 40 events -> 38 windows, plus B's
  const auto b_first = std::find(order.begin(), order.end(), "b");
  const auto a_last = std::find(order.rbegin(), order.rend(), "a");
  ASSERT_NE(b_first, order.end());
  EXPECT_LT(b_first - order.begin(), order.rend() - a_last - 1)
      << "session b waited for all of session a's queued batches";
}

}  // namespace
}  // namespace adprom::service
