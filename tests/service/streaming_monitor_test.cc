// StreamingMonitor unit + golden tests: feeding a trace one event at a
// time must reproduce DetectionEngine::MonitorTrace verdict for verdict,
// bit for bit — including the short-trace whole-window rule on Finish()
// and across buffer compactions on long streams.

#include "service/streaming_monitor.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/adprom.h"
#include "core/detection_engine.h"
#include "tests/core/test_app.h"

namespace adprom::service {
namespace {

using core::Detection;
using core::testing::InventoryDbFactory;
using core::testing::InventoryTestCases;
using core::testing::kInventoryAppSource;

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

/// Streams a trace event-by-event and returns every verdict (including the
/// short-session verdict Finish may emit).
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

class StreamingMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto program = prog::ParseProgram(kInventoryAppSource);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = new prog::Program(std::move(program).value());
    auto system = core::AdProm::Train(*program_, InventoryDbFactory(),
                                      InventoryTestCases());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = new core::AdProm(std::move(system).value());
  }

  static void TearDownTestSuite() {
    delete system_;
    delete program_;
    system_ = nullptr;
    program_ = nullptr;
  }

  runtime::Trace Collect(const std::vector<std::string>& inputs) {
    auto cfgs = prog::BuildAllCfgs(*program_);
    EXPECT_TRUE(cfgs.ok());
    auto trace = core::AdProm::CollectTrace(*program_, *cfgs,
                                            InventoryDbFactory(), {inputs});
    EXPECT_TRUE(trace.ok()) << trace.status().ToString();
    return std::move(trace).value();
  }

  static prog::Program* program_;
  static core::AdProm* system_;
};

prog::Program* StreamingMonitorTest::program_ = nullptr;
core::AdProm* StreamingMonitorTest::system_ = nullptr;

TEST_F(StreamingMonitorTest, SilentWhileFirstWindowFills) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);
  const runtime::Trace trace = Collect({"list", "find", "5", "stats"});
  const size_t n = profile.options.window_length;
  ASSERT_GT(trace.size(), n);

  StreamingMonitor monitor(&profile, &engine);
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_FALSE(monitor.OnEvent(trace[i]).has_value())
        << "verdict before the first window was complete, event " << i;
  }
  // The n-th event completes the first window.
  EXPECT_TRUE(monitor.OnEvent(trace[n - 1]).has_value());
  EXPECT_EQ(monitor.windows_scored(), 1u);
}

TEST_F(StreamingMonitorTest, EveryTestCaseMatchesBatchBitForBit) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);
  const auto cases = InventoryTestCases();
  for (size_t i = 0; i < cases.size(); ++i) {
    const runtime::Trace trace = Collect(cases[i].inputs);
    ExpectSameDetections(engine.MonitorTrace(trace),
                         StreamTrace(profile, engine, trace),
                         "case " + std::to_string(i));
  }
}

TEST_F(StreamingMonitorTest, InjectionRunMatchesBatchAndAlarms) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);
  const runtime::Trace trace = Collect({"find", "1' OR '1'='1"});
  const std::vector<Detection> streamed = StreamTrace(profile, engine, trace);
  ExpectSameDetections(engine.MonitorTrace(trace), streamed, "injection");
  bool leak = false;
  for (const Detection& d : streamed) {
    if (d.flag == core::DetectionFlag::kDataLeak &&
        !d.source_tables.empty()) {
      leak = true;
    }
  }
  EXPECT_TRUE(leak) << "streamed injection raised no DataLeak with sources";
}

TEST_F(StreamingMonitorTest, ShortSessionScoredAsOneWindowOnFinish) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);
  runtime::Trace trace = Collect({"list"});
  const size_t n = profile.options.window_length;
  ASSERT_GE(trace.size(), 4u);
  trace.resize(std::min(trace.size(), n - 1));  // strictly shorter than n

  StreamingMonitor monitor(&profile, &engine);
  for (const runtime::CallEvent& event : trace) {
    EXPECT_FALSE(monitor.OnEvent(event).has_value());
  }
  std::optional<Detection> last = monitor.Finish();
  ASSERT_TRUE(last.has_value())
      << "short session must still get its whole-trace verdict";
  const auto batch = engine.MonitorTrace(trace);
  ExpectSameDetections(batch, {*last}, "short session");
}

TEST_F(StreamingMonitorTest, FinishIsIdempotentAndEmptyOnLongSessions) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);

  StreamingMonitor empty(&profile, &engine);
  EXPECT_FALSE(empty.Finish().has_value());
  EXPECT_FALSE(empty.Finish().has_value());

  const runtime::Trace trace = Collect({"list", "stats", "find", "3"});
  ASSERT_GT(trace.size(), profile.options.window_length);
  StreamingMonitor monitor(&profile, &engine);
  for (const runtime::CallEvent& event : trace) (void)monitor.OnEvent(event);
  // Every window was already emitted per-event; nothing is pending.
  EXPECT_FALSE(monitor.Finish().has_value());
  EXPECT_FALSE(monitor.Finish().has_value());

  StreamingMonitor short_session(&profile, &engine);
  (void)short_session.OnEvent(trace[0]);
  EXPECT_TRUE(short_session.Finish().has_value());
  EXPECT_FALSE(short_session.Finish().has_value()) << "Finish re-emitted";
}

TEST_F(StreamingMonitorTest, LongStreamSurvivesManyCompactions) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);

  // Concatenate every test-case trace into one long session, long enough
  // to force the 2n sliding buffer to compact many times.
  runtime::Trace long_trace;
  for (const core::TestCase& test_case : InventoryTestCases()) {
    const runtime::Trace trace = Collect(test_case.inputs);
    long_trace.insert(long_trace.end(), trace.begin(), trace.end());
  }
  ASSERT_GT(long_trace.size(), 8 * profile.options.window_length);

  ExpectSameDetections(engine.MonitorTrace(long_trace),
                       StreamTrace(profile, engine, long_trace), "long stream");
}

TEST_F(StreamingMonitorTest, WindowStartsCountUpFromZero) {
  const core::ApplicationProfile& profile = system_->profile();
  const core::DetectionEngine engine(&profile);
  const runtime::Trace trace = Collect({"list", "find", "2", "stats"});
  const std::vector<Detection> streamed = StreamTrace(profile, engine, trace);
  ASSERT_FALSE(streamed.empty());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].window_start, i);
  }
}

}  // namespace
}  // namespace adprom::service
