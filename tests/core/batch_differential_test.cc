// Corpus-wide differential suite for the batched scoring engine: for every
// corpus application, monitoring every recorded trace through the batched
// SIMD engine must produce verdicts *bit-identical* (flags, scores,
// provenance) to the dense reference (every window scored alone by the
// scalar forward pass), however many windows each scoring call carries —
// below, equal to, and above the SIMD lane counts and the engine width —
// and with SIMD forced off. The quantized triage tier must never change a
// verdict: same flags on every window of every trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/corpus.h"
#include "core/adprom.h"
#include "core/detection_engine.h"
#include "hmm/inference.h"
#include "tests/core/reference_monitor.h"
#include "util/thread_pool.h"

namespace adprom::core {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

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

class BatchDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  /// Trains each app once per process.
  static const AdProm& Trained(int index) {
    static std::vector<std::unique_ptr<AdProm>>* cache =
        new std::vector<std::unique_ptr<AdProm>>(kNumApps);
    std::unique_ptr<AdProm>& slot = (*cache)[index];
    if (slot != nullptr) return *slot;
    const apps::CorpusApp app = MakeApp(index);
    auto program = prog::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    ProfileOptions options;
    options.max_training_windows = 200;
    options.train.max_iterations = 5;
    auto system =
        AdProm::Train(*program, app.db_factory, app.test_cases, options);
    EXPECT_TRUE(system.ok()) << app.name << ": "
                             << system.status().ToString();
    slot = std::make_unique<AdProm>(std::move(system).value());
    return *slot;
  }

  static void ExpectSameVerdicts(
      const std::vector<std::vector<Detection>>& expected,
      const std::vector<std::vector<Detection>>& got,
      const std::string& label, bool compare_scores) {
    ASSERT_EQ(expected.size(), got.size()) << label;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i].size(), got[i].size())
          << label << " trace " << i;
      for (size_t w = 0; w < expected[i].size(); ++w) {
        const Detection& e = expected[i][w];
        const Detection& g = got[i][w];
        const std::string where =
            label + " trace " + std::to_string(i) + " window " +
            std::to_string(w);
        EXPECT_EQ(e.flag, g.flag) << where;
        EXPECT_EQ(e.window_start, g.window_start) << where;
        EXPECT_EQ(e.source_tables, g.source_tables) << where;
        EXPECT_EQ(e.detail, g.detail) << where;
        if (compare_scores) {
          EXPECT_EQ(Bits(e.score), Bits(g.score)) << where;
        }
      }
    }
  }
};

TEST_P(BatchDifferentialTest, BatchedVerdictsMatchUnbatchedAtEveryWidth) {
  const AdProm& system = Trained(GetParam());
  const ApplicationProfile& profile = system.profile();
  const std::vector<runtime::Trace>& traces = system.training_traces();
  ASSERT_FALSE(traces.empty());

  // no_simd pins the scalar kernels on hardware that would dispatch to
  // AVX2/NEON.
  for (const bool no_simd : {false, true}) {
    ApplicationProfile batched = profile;
    batched.options.no_simd = no_simd;
    const DetectionEngine engine(&batched);
    const auto expected =
        testing::ReferenceMonitorTraces(engine, batched, traces);
    ExpectSameVerdicts(expected, engine.MonitorTraces(traces),
                       "MonitorTraces no_simd=" + std::to_string(no_simd),
                       /*compare_scores=*/true);

    // ScoreWindows with W windows per call: 1, 3 and 17 leave sub-lane
    // remainders on every SIMD arch, 16 is the engine width and 33 spans
    // three engine blocks.
    for (const size_t per_call : {size_t{1}, size_t{3}, size_t{16},
                                  size_t{17}, size_t{33}}) {
      hmm::BatchWorkspace ws;
      engine.ReserveWorkspace(&ws);
      for (size_t i = 0; i < traces.size(); ++i) {
        const hmm::ObservationSeq symbols = batched.Encode(traces[i]);
        const auto windows =
            SlidingWindows(traces[i], batched.options.window_length);
        std::vector<hmm::SymbolSpan> spans;
        for (const auto& window : windows) {
          const auto start = window.data() - traces[i].data();
          spans.emplace_back(symbols.data() + start, window.size());
        }
        std::vector<double> scores(spans.size());
        for (size_t w = 0; w < spans.size(); w += per_call) {
          const size_t count = std::min(per_call, spans.size() - w);
          engine.ScoreWindows(std::span(spans).subspan(w, count), &ws,
                              std::span(scores).subspan(w, count));
        }
        for (size_t w = 0; w < spans.size(); ++w) {
          EXPECT_EQ(Bits(scores[w]), Bits(expected[i][w].score))
              << "per_call=" << per_call << " no_simd=" << no_simd
              << " trace " << i << " window " << w;
        }
      }
    }
  }
}

TEST_P(BatchDifferentialTest, BatchedVerdictsMatchAcrossPoolSizes) {
  const AdProm& system = Trained(GetParam());
  const ApplicationProfile& profile = system.profile();
  const std::vector<runtime::Trace>& traces = system.training_traces();

  const DetectionEngine engine(&profile);
  const auto serial = engine.MonitorTraces(traces);
  for (size_t workers : {size_t{2}, size_t{4}}) {
    util::ThreadPool pool(workers);
    const auto pooled = engine.MonitorTraces(traces, &pool);
    ExpectSameVerdicts(serial, pooled,
                       "workers=" + std::to_string(workers),
                       /*compare_scores=*/true);
  }
}

TEST_P(BatchDifferentialTest, TriageNeverChangesAVerdict) {
  const AdProm& system = Trained(GetParam());
  const ApplicationProfile& profile = system.profile();
  const std::vector<runtime::Trace>& traces = system.training_traces();

  const DetectionEngine exact_engine(&profile);
  const auto expected = exact_engine.MonitorTraces(traces);

  ApplicationProfile triage_profile = profile;
  triage_profile.options.triage = true;
  const DetectionEngine triage_engine(&triage_profile);
  const auto got = triage_engine.MonitorTraces(traces);
  // Scores may legally differ on certified-benign windows (the reported
  // bound is a floor on the exact score); every verdict field must match.
  ExpectSameVerdicts(expected, got, "triage", /*compare_scores=*/false);

  // The bound is a floor: a triage score above the exact one would break
  // the certificate.
  for (size_t i = 0; i < expected.size(); ++i) {
    for (size_t w = 0; w < expected[i].size(); ++w) {
      EXPECT_LE(got[i][w].score, expected[i][w].score)
          << "trace " << i << " window " << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, BatchDifferentialTest,
                         ::testing::Range(0, kNumApps), AppParamName);

// Training-side differential: the batched Baum-Welch engine, the batched
// CSDS early-stopping scorer, and the batched threshold scan together must
// construct a *byte-identical* profile — the chosen detection threshold
// included — for every SIMD pin and thread count, and the threshold must
// be exactly the dense reference's: the lowest scalar-forward score over
// every training window, minus the margin.
TEST(BatchTrainDifferentialTest, ConstructedProfileAndThresholdBitIdentical) {
  const apps::CorpusApp app = apps::MakeGrepLike(12, 1);
  auto program = prog::ParseProgram(app.source);
  ASSERT_TRUE(program.ok());

  auto train = [&](bool no_simd, int threads) {
    ProfileOptions options;
    options.max_training_windows = 160;
    options.train.max_iterations = 4;
    options.train.num_threads = threads;
    options.no_simd = no_simd;
    auto system =
        AdProm::Train(*program, app.db_factory, app.test_cases, options);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::make_unique<AdProm>(std::move(system).value());
  };

  const auto anchor = train(/*no_simd=*/true, /*threads=*/1);
  const ApplicationProfile& profile = anchor->profile();
  const std::string expected = profile.Serialize();

  double min_score = std::numeric_limits<double>::max();
  for (const runtime::Trace& trace : anchor->training_traces()) {
    for (const auto& window :
         SlidingWindows(trace, profile.options.window_length)) {
      auto score =
          hmm::PerSymbolLogLikelihood(profile.model, profile.Encode(window));
      ASSERT_TRUE(score.ok());
      min_score = std::min(min_score, *score);
    }
  }
  EXPECT_EQ(Bits(profile.threshold),
            Bits(min_score - profile.options.threshold_margin));

  struct Config {
    bool no_simd;
    int threads;
  };
  for (const Config& config : {Config{false, 1}, Config{false, 3},
                               Config{true, 4}}) {
    const auto got = train(config.no_simd, config.threads);
    const std::string label = "no_simd=" + std::to_string(config.no_simd) +
                              " threads=" + std::to_string(config.threads);
    EXPECT_EQ(Bits(got->profile().threshold), Bits(profile.threshold))
        << label;
    EXPECT_EQ(got->profile().Serialize(), expected) << label;
  }
}

}  // namespace
}  // namespace adprom::core
