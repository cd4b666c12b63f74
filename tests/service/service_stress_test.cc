// Concurrency stress for the streaming service, written to run under
// ThreadSanitizer (the ADPROM_SANITIZE=thread CI job): many sessions fed
// from many producer threads over a small pool, with overflow, eviction
// churn, and close racing against blocked producers. Every session is
// bound to one shared ProfileHandle, so all sessions read one engine
// concurrently. The lossless test still asserts full bit-identity with the
// batch engine; the churn tests assert the invariants that survive any
// scheduling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detection_engine.h"
#include "hmm/hmm_model.h"
#include "service/alert_sink.h"
#include "service/profile_registry.h"
#include "service/session_manager.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace adprom::service {
namespace {

core::ApplicationProfile MakeTinyProfile(size_t window_length = 5) {
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

/// Session s's event stream is a deterministic function of (s, i), so any
/// thread can rebuild the exact trace a session saw.
runtime::CallEvent Ev(int session, int i) {
  runtime::CallEvent event;
  event.callee = ((session + i) % 2 == 0) ? "print" : "scan";
  event.caller = "main";
  event.block_id = session * 1000 + i;
  return event;
}

/// A binding to a handle that owns a copy of `profile`: every session
/// bound to it scores through the handle's one engine.
SessionBinding Bind(const core::ApplicationProfile& profile) {
  SessionBinding binding;
  binding.profile =
      std::make_shared<const ProfileHandle>("tiny", "inline", 1, profile);
  return binding;
}

runtime::Trace SessionTrace(int session, int count) {
  runtime::Trace trace;
  for (int i = 0; i < count; ++i) trace.push_back(Ev(session, i));
  return trace;
}

TEST(ServiceStressTest, LosslessManySessionsManyProducers) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(4);
  SessionManagerOptions options;
  options.queue_capacity = 16;  // small: forces real back-pressure
  options.overflow = SessionManagerOptions::OverflowPolicy::kBlock;
  options.batch_size = 8;
  SessionManager manager(&sink, &pool, options);

  constexpr int kProducers = 4;
  constexpr int kSessionsPerProducer = 8;
  constexpr int kEventsPerSession = 200;

  // Each producer owns its sessions, so per-session submission order is
  // well defined; the cross-session interleaving is whatever the
  // scheduler makes of 4 producers vs 4 pool workers.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kEventsPerSession; ++i) {
        for (int s = 0; s < kSessionsPerProducer; ++s) {
          const int session = p * kSessionsPerProducer + s;
          ASSERT_TRUE(manager
                          .Submit("s" + std::to_string(session), binding,
                                  Ev(session, i))
                          .ok());
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  manager.Drain();
  manager.CloseAll();

  constexpr int kSessions = kProducers * kSessionsPerProducer;
  EXPECT_EQ(manager.total_dropped(), 0u);
  EXPECT_EQ(sink.closed_sessions(), static_cast<size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    const std::string id = "s" + std::to_string(s);
    const auto expected =
        engine.MonitorTrace(SessionTrace(s, kEventsPerSession));
    const auto actual = sink.DetectionsFor(id);
    ASSERT_EQ(expected.size(), actual.size()) << id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].flag, actual[i].flag) << id << " " << i;
      EXPECT_EQ(expected[i].score, actual[i].score) << id << " " << i;
      EXPECT_EQ(expected[i].window_start, actual[i].window_start)
          << id << " " << i;
    }
    const SessionStats stats = sink.StatsFor(id);
    EXPECT_EQ(stats.events_accepted,
              static_cast<size_t>(kEventsPerSession));
    EXPECT_EQ(stats.verdicts, expected.size());
    EXPECT_EQ(stats.dropped_events, 0u);
  }
}

TEST(ServiceStressTest, OverflowAndEvictionChurn) {
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  CollectingAlertSink sink;
  util::ThreadPool pool(2);
  SessionManagerOptions options;
  options.queue_capacity = 4;
  options.overflow = SessionManagerOptions::OverflowPolicy::kDropOldest;
  options.batch_size = 2;
  SessionManager manager(&sink, &pool, options);

  constexpr int kProducers = 2;
  constexpr int kSessionsPerProducer = 8;
  constexpr int kEventsPerSession = 300;
  std::atomic<bool> stop_churn{false};

  // A maintenance thread hammers eviction and drain while producers run:
  // sessions may be closed out from under a producer and transparently
  // recreated by its next Submit.
  std::thread churn([&] {
    while (!stop_churn.load()) {
      (void)manager.EvictIdle(std::chrono::seconds(0));
      (void)manager.num_sessions();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kEventsPerSession; ++i) {
        for (int s = 0; s < kSessionsPerProducer; ++s) {
          const int session = p * kSessionsPerProducer + s;
          // FailedPrecondition = the churn thread closed the session
          // between GetOrCreate and the enqueue; just move on.
          (void)manager.Submit("s" + std::to_string(session), binding,
                               Ev(session, i));
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  stop_churn.store(true);
  churn.join();
  manager.Drain();
  manager.CloseAll();

  // Scheduling decides how much was dropped or split across evictions;
  // what must hold regardless: everything shut down, and the drop counter
  // never exceeds what was submitted.
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_LE(manager.total_dropped(),
            static_cast<size_t>(kProducers * kSessionsPerProducer *
                                kEventsPerSession));
  EXPECT_GT(sink.closed_sessions(), 0u);
}

TEST(ServiceStressTest, CloseAllWakesBlockedProducers) {
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

  // Fill the queue behind the parked worker, then block in Submit.
  ASSERT_TRUE(manager.Submit("s", binding, Ev(0, 0)).ok());
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    const util::Status status = manager.Submit("s", binding, Ev(0, 1));
    if (!status.ok()) rejected.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Close must wake the blocked producer with an error, then wait for the
  // worker to finish once the pool is released.
  std::thread closer([&] { manager.CloseAll(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_value();
  closer.join();
  producer.join();

  EXPECT_TRUE(rejected.load())
      << "blocked producer was not failed out by close";
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(sink.closed_sessions(), 1u);
}

TEST(ServiceStressTest, DestroyingPooledManagersWithDrainersInFlight) {
  // Each manager is destroyed right after its last Submit, while drainer
  // tasks are still queued or running: the destructor must wait for every
  // drainer to retire before the members they touch go away. Under TSan a
  // drainer that touches the manager after it reads as retired is a
  // reported race; here it would be a use-after-free.
  const core::ApplicationProfile profile = MakeTinyProfile();
  const SessionBinding binding = Bind(profile);
  const core::DetectionEngine engine(&profile);
  util::ThreadPool pool(4);
  SessionManagerOptions options;
  options.batch_size = 2;
  constexpr int kRounds = 200;
  constexpr int kSessions = 6;
  constexpr int kEvents = 9;
  for (int round = 0; round < kRounds; ++round) {
    CollectingAlertSink sink;
    {
      SessionManager manager(&sink, &pool, options);
      for (int i = 0; i < kEvents; ++i) {
        for (int s = 0; s < kSessions; ++s) {
          ASSERT_TRUE(
              manager.Submit("s" + std::to_string(s), binding, Ev(s, i))
                  .ok());
        }
      }
    }
    ASSERT_EQ(sink.closed_sessions(), static_cast<size_t>(kSessions))
        << "round " << round;
    for (int s = 0; s < kSessions; ++s) {
      const std::string id = "s" + std::to_string(s);
      const auto expected = engine.MonitorTrace(SessionTrace(s, kEvents));
      const auto actual = sink.DetectionsFor(id);
      ASSERT_EQ(expected.size(), actual.size()) << id << " round " << round;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].score, actual[i].score) << id << " " << i;
      }
    }
  }
}

}  // namespace
}  // namespace adprom::service
