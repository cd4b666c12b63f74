// Satellite differential suite: for every corpus application (the
// CA-dataset hospital/banking/supermarket clients, the SIR-style tools,
// and the web portal), every recorded trace is fed event-by-event through
// the streaming service and the verdicts must be bit-identical to the
// dense reference (every window scored alone by the scalar forward pass)
// and to DetectionEngine::MonitorTraces — through the bare
// StreamingMonitor and through a SessionManager multiplexing all traces
// as concurrent sessions bound to one shared ProfileHandle, for every
// worker-thread count.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/corpus.h"
#include "core/adprom.h"
#include "core/detection_engine.h"
#include "service/alert_sink.h"
#include "service/profile_registry.h"
#include "service/session_manager.h"
#include "service/streaming_monitor.h"
#include "tests/core/reference_monitor.h"
#include "util/thread_pool.h"

namespace adprom::service {
namespace {

using core::Detection;

void ExpectSameDetections(const std::vector<Detection>& expected,
                          const std::vector<Detection>& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Detection& e = expected[i];
    const Detection& a = actual[i];
    EXPECT_EQ(e.flag, a.flag) << label << " window " << i;
    EXPECT_EQ(e.score, a.score) << label << " window " << i;
    EXPECT_EQ(e.window_start, a.window_start) << label << " window " << i;
    EXPECT_EQ(e.source_tables, a.source_tables) << label << " window " << i;
    EXPECT_EQ(e.detail, a.detail) << label << " window " << i;
  }
}

std::vector<Detection> StreamTrace(const core::ApplicationProfile& profile,
                                   const core::DetectionEngine& engine,
                                   const runtime::Trace& trace) {
  StreamingMonitor monitor(&profile, &engine);
  std::vector<Detection> out;
  for (const runtime::CallEvent& event : trace) {
    std::optional<Detection> verdict = monitor.OnEvent(event);
    if (verdict.has_value()) out.push_back(*verdict);
  }
  std::optional<Detection> last = monitor.Finish();
  if (last.has_value()) out.push_back(*last);
  return out;
}

/// Small variants of the corpus apps (same shapes as apps/corpus_test.cc)
/// with training bounded so the whole differential suite stays fast; the
/// bit-identity claim is size-independent.
apps::CorpusApp MakeApp(int index) {
  switch (index) {
    case 0: return apps::MakeHospitalApp();
    case 1: return apps::MakeBankingApp();
    case 2: return apps::MakeSupermarketApp();
    case 3: return apps::MakeWebPortalApp();
    case 4: return apps::MakeGrepLike(12, 1);
    case 5: return apps::MakeGzipLike(10, 2);
    case 6: return apps::MakeSedLike(10, 3);
    default: return apps::MakeBashLike(25, 8, 4);
  }
}

constexpr int kNumApps = 8;

std::string AppParamName(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"Hospital", "Banking",  "Supermarket",
                                "WebPortal", "GrepLike", "GzipLike",
                                "SedLike",  "BashLike"};
  return names[info.param];
}

struct TrainedApp {
  std::string name;
  std::unique_ptr<core::AdProm> system;
};

class StreamingDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  /// Trains each app once per process; the traces under test are the
  /// recorded training traces (every trace the corpus produced).
  static const TrainedApp& Trained(int index) {
    static std::vector<TrainedApp>* cache =
        new std::vector<TrainedApp>(kNumApps);
    TrainedApp& slot = (*cache)[index];
    if (slot.system != nullptr) return slot;
    const apps::CorpusApp app = MakeApp(index);
    auto program = prog::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    core::ProfileOptions options;
    options.max_training_windows = 200;
    options.train.max_iterations = 5;
    auto system = core::AdProm::Train(*program, app.db_factory,
                                      app.test_cases, options);
    EXPECT_TRUE(system.ok()) << app.name << ": "
                             << system.status().ToString();
    slot.name = app.name;
    if (system.ok()) {
      slot.system =
          std::make_unique<core::AdProm>(std::move(system).value());
    }
    return slot;
  }
};

TEST_P(StreamingDifferentialTest, StreamingMonitorMatchesBatch) {
  const TrainedApp& app = Trained(GetParam());
  ASSERT_NE(app.system, nullptr) << app.name << " failed to train";
  const core::ApplicationProfile& profile = app.system->profile();
  const core::DetectionEngine engine(&profile);
  const std::vector<runtime::Trace>& traces = app.system->training_traces();
  ASSERT_FALSE(traces.empty()) << app.name;

  const auto reference =
      core::testing::ReferenceMonitorTraces(engine, profile, traces);
  const auto batch = engine.MonitorTraces(traces);
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::string label = app.name + " trace " + std::to_string(i);
    ExpectSameDetections(reference[i], batch[i], label + " batch");
    ExpectSameDetections(reference[i], StreamTrace(profile, engine, traces[i]),
                         label);
  }
}

TEST_P(StreamingDifferentialTest, SessionManagerMatchesBatchForAnyPoolSize) {
  const TrainedApp& app = Trained(GetParam());
  ASSERT_NE(app.system, nullptr) << app.name << " failed to train";
  SessionBinding binding;
  binding.profile = std::make_shared<const ProfileHandle>(
      app.name, "inline", 1, app.system->profile());
  const core::ApplicationProfile& profile = binding.profile->profile();
  const core::DetectionEngine& engine = binding.profile->engine();
  const std::vector<runtime::Trace>& traces = app.system->training_traces();
  const auto batch =
      core::testing::ReferenceMonitorTraces(engine, profile, traces);

  // Pool size 0 = the null-pool inline path; then 1..4 workers. Per
  // session, every size must produce the identical verdict stream.
  for (size_t workers = 0; workers <= 4; ++workers) {
    std::optional<util::ThreadPool> pool;
    if (workers > 0) pool.emplace(workers);
    CollectingAlertSink sink;
    SessionManager manager(&sink, pool.has_value() ? &*pool : nullptr);

    // Interleave the sessions round-robin so many are concurrently live.
    size_t remaining = 0;
    for (const runtime::Trace& trace : traces) remaining += trace.size();
    for (size_t offset = 0; remaining > 0; ++offset) {
      for (size_t i = 0; i < traces.size(); ++i) {
        if (offset >= traces[i].size()) continue;
        ASSERT_TRUE(manager
                        .Submit("t" + std::to_string(i), binding,
                                traces[i][offset])
                        .ok());
        --remaining;
      }
    }
    manager.CloseAll();

    for (size_t i = 0; i < traces.size(); ++i) {
      const std::string id = "t" + std::to_string(i);
      ExpectSameDetections(batch[i], sink.DetectionsFor(id),
                           app.name + " " + id + " workers=" +
                               std::to_string(workers));
      const SessionStats stats = sink.StatsFor(id);
      EXPECT_EQ(stats.events_accepted, traces[i].size()) << app.name;
      EXPECT_EQ(stats.verdicts, batch[i].size()) << app.name;
      EXPECT_EQ(stats.dropped_events, 0u) << app.name;
    }
    EXPECT_EQ(manager.total_dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, StreamingDifferentialTest,
                         ::testing::Range(0, kNumApps), AppParamName);

}  // namespace
}  // namespace adprom::service
