// Corpus-wide kernel differential suite: for every corpus application,
// training with the SIMD kernel table must produce a *byte-equal*
// serialized profile to training with the scalar kernels pinned, and
// monitoring every recorded trace through the batch engine must produce
// verdicts (flags, scores, provenance) identical to the dense reference
// for every pool size. This is the end-to-end enforcement of the batch
// engines' bit-identity contract — any rounding divergence anywhere in
// forward/backward/E-step/scoring shows up here as a byte diff.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/corpus.h"
#include "core/adprom.h"
#include "core/detection_engine.h"
#include "tests/core/reference_monitor.h"
#include "util/thread_pool.h"

namespace adprom::core {
namespace {

/// Small variants of the corpus apps (same shapes as the streaming
/// differential suite) with training bounded so the suite stays fast.
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

struct TrainedPair {
  std::string name;
  std::unique_ptr<AdProm> sparse;  // runtime SIMD dispatch (default)
  std::unique_ptr<AdProm> dense;   // scalar kernels pinned (no_simd)
};

class SparseDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  /// Trains each app once per process with each kernel table.
  static const TrainedPair& Trained(int index) {
    static std::vector<TrainedPair>* cache =
        new std::vector<TrainedPair>(kNumApps);
    TrainedPair& slot = (*cache)[index];
    if (slot.sparse != nullptr) return slot;
    const apps::CorpusApp app = MakeApp(index);
    auto program = prog::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    slot.name = app.name;
    for (bool no_simd : {false, true}) {
      ProfileOptions options;
      options.max_training_windows = 200;
      options.train.max_iterations = 5;
      options.no_simd = no_simd;
      auto system =
          AdProm::Train(*program, app.db_factory, app.test_cases, options);
      EXPECT_TRUE(system.ok()) << app.name << ": "
                               << system.status().ToString();
      if (!system.ok()) continue;
      auto& target = no_simd ? slot.dense : slot.sparse;
      target = std::make_unique<AdProm>(std::move(system).value());
    }
    return slot;
  }
};

TEST_P(SparseDifferentialTest, TrainingIsByteIdenticalAcrossKernels) {
  const TrainedPair& app = Trained(GetParam());
  ASSERT_NE(app.sparse, nullptr) << app.name;
  ASSERT_NE(app.dense, nullptr) << app.name;
  // Byte-equal serialization covers the HMM parameters (at full %.17g
  // precision), the threshold, the alphabet and the context set at once.
  // (no_simd itself is runtime-only and never serialized.)
  EXPECT_EQ(app.sparse->profile().Serialize(),
            app.dense->profile().Serialize())
      << app.name << ": SIMD and scalar training diverged";
}

TEST_P(SparseDifferentialTest, VerdictsMatchAcrossKernelsForAnyPoolSize) {
  const TrainedPair& app = Trained(GetParam());
  ASSERT_NE(app.sparse, nullptr) << app.name;
  const ApplicationProfile& sparse_profile = app.sparse->profile();
  ApplicationProfile scalar_profile = sparse_profile;
  scalar_profile.options.no_simd = true;
  const DetectionEngine sparse_engine(&sparse_profile);
  const DetectionEngine scalar_engine(&scalar_profile);
  const std::vector<runtime::Trace>& traces = app.sparse->training_traces();
  ASSERT_FALSE(traces.empty()) << app.name;
  const auto expected =
      testing::ReferenceMonitorTraces(sparse_engine, sparse_profile, traces);

  for (size_t workers = 0; workers <= 4; ++workers) {
    std::optional<util::ThreadPool> pool;
    if (workers > 0) pool.emplace(workers);
    util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
    for (const DetectionEngine* engine : {&sparse_engine, &scalar_engine}) {
      const auto got = engine->MonitorTraces(traces, pool_ptr);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < traces.size(); ++i) {
        const auto& s = got[i];
        const auto& d = expected[i];
        ASSERT_EQ(s.size(), d.size()) << app.name << " trace " << i;
        for (size_t w = 0; w < s.size(); ++w) {
          const std::string label =
              app.name + " trace " + std::to_string(i) + " window " +
              std::to_string(w) + " workers=" + std::to_string(workers) +
              (engine == &scalar_engine ? " no_simd" : "");
          EXPECT_EQ(s[w].flag, d[w].flag) << label;
          EXPECT_EQ(s[w].score, d[w].score) << label;
          EXPECT_EQ(s[w].window_start, d[w].window_start) << label;
          EXPECT_EQ(s[w].source_tables, d[w].source_tables) << label;
          EXPECT_EQ(s[w].detail, d[w].detail) << label;
        }
      }
    }
  }
}

TEST_P(SparseDifferentialTest, SerializedProfileUsesSparseSection) {
  const TrainedPair& app = Trained(GetParam());
  ASSERT_NE(app.sparse, nullptr) << app.name;
  const std::string text = app.sparse->profile().Serialize();
  EXPECT_EQ(text.rfind("adprom-profile v2\n", 0), 0u) << app.name;
  EXPECT_NE(text.find("\na-sparse\n"), std::string::npos) << app.name;
  // Reloading the sparse format reproduces the profile byte for byte.
  auto reloaded = ApplicationProfile::Deserialize(text);
  ASSERT_TRUE(reloaded.ok()) << app.name << ": "
                             << reloaded.status().ToString();
  EXPECT_EQ(reloaded->Serialize(), text) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, SparseDifferentialTest,
                         ::testing::Range(0, kNumApps), AppParamName);

}  // namespace
}  // namespace adprom::core
