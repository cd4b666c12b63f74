// Micro-batch streaming differential suite: StreamingMonitor::OnEvents
// must emit, for ANY chunking of the event stream, exactly the verdicts
// OnEvent emits per event — which are themselves bit-identical to
// DetectionEngine::MonitorTrace. The chunk boundaries decide only how many
// windows score per vectorized block, never what any window scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/corpus.h"
#include "core/adprom.h"
#include "core/detection_engine.h"
#include "service/streaming_monitor.h"

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

/// Feeds `trace` through OnEvents in chunks of `chunk` events.
std::vector<Detection> StreamChunked(const core::ApplicationProfile& profile,
                                     const core::DetectionEngine& engine,
                                     const runtime::Trace& trace,
                                     size_t chunk) {
  StreamingMonitor monitor(&profile, &engine);
  std::vector<Detection> out;
  for (size_t base = 0; base < trace.size(); base += chunk) {
    const size_t take = std::min(chunk, trace.size() - base);
    std::vector<runtime::CallEvent> batch(trace.begin() + base,
                                          trace.begin() + base + take);
    for (Detection& verdict : monitor.OnEvents(batch)) {
      out.push_back(std::move(verdict));
    }
  }
  std::optional<Detection> last = monitor.Finish();
  if (last.has_value()) out.push_back(*last);
  return out;
}

std::vector<Detection> StreamPerEvent(
    const core::ApplicationProfile& profile,
    const core::DetectionEngine& engine, const runtime::Trace& trace) {
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

class StreamingBatchTest : public ::testing::Test {
 protected:
  static const core::AdProm& Trained() {
    static const core::AdProm* system = [] {
      const apps::CorpusApp app = apps::MakeBankingApp();
      auto program = prog::ParseProgram(app.source);
      EXPECT_TRUE(program.ok());
      core::ProfileOptions options;
      options.max_training_windows = 200;
      options.train.max_iterations = 5;
      auto trained = core::AdProm::Train(*program, app.db_factory,
                                         app.test_cases, options);
      EXPECT_TRUE(trained.ok()) << trained.status().ToString();
      return new core::AdProm(std::move(trained).value());
    }();
    return *system;
  }
};

TEST_F(StreamingBatchTest, AnyChunkingMatchesPerEventStreaming) {
  const core::ApplicationProfile& profile = Trained().profile();
  const core::DetectionEngine engine(&profile);
  const std::vector<runtime::Trace>& traces = Trained().training_traces();
  ASSERT_FALSE(traces.empty());
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<Detection> expected =
        StreamPerEvent(profile, engine, traces[i]);
    // 1 = degenerate micro-batch; 7 = smaller than a window; 64 = the
    // SessionManager default batch_size; huge = whole trace in one call.
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64},
                               traces[i].size() + 1}) {
      ExpectSameDetections(expected,
                           StreamChunked(profile, engine, traces[i], chunk),
                           "trace " + std::to_string(i) + " chunk " +
                               std::to_string(chunk));
    }
  }
}

TEST_F(StreamingBatchTest, ChunkedStreamingMatchesBatchMonitorTrace) {
  const core::ApplicationProfile& profile = Trained().profile();
  const core::DetectionEngine engine(&profile);
  const std::vector<runtime::Trace>& traces = Trained().training_traces();
  for (size_t i = 0; i < traces.size(); ++i) {
    ExpectSameDetections(engine.MonitorTrace(traces[i]),
                         StreamChunked(profile, engine, traces[i], 64),
                         "trace " + std::to_string(i));
  }
}

TEST_F(StreamingBatchTest, TriageStreamingKeepsFlagsIdentical) {
  core::ApplicationProfile profile = Trained().profile();
  profile.options.triage = true;
  const core::DetectionEngine triage_engine(&profile);
  const core::ApplicationProfile& exact = Trained().profile();
  const core::DetectionEngine exact_engine(&exact);
  const std::vector<runtime::Trace>& traces = Trained().training_traces();
  for (size_t i = 0; i < traces.size(); ++i) {
    const std::vector<Detection> expected =
        StreamPerEvent(exact, exact_engine, traces[i]);
    const std::vector<Detection> got =
        StreamChunked(profile, triage_engine, traces[i], 64);
    ASSERT_EQ(expected.size(), got.size()) << "trace " << i;
    for (size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(expected[w].flag, got[w].flag)
          << "trace " << i << " window " << w;
      EXPECT_LE(got[w].score, expected[w].score)
          << "trace " << i << " window " << w;
    }
  }
}

}  // namespace
}  // namespace adprom::service
