// End-to-end training-phase tests: analyze, collect traces, construct a
// profile, and check its structural properties.

#include <gtest/gtest.h>

#include <string>

#include "core/adprom.h"
#include "core/analyzer.h"
#include "core/baselines.h"
#include "prog/program.h"
#include "tests/core/test_app.h"
#include "tests/prog/nesting_programs.h"

namespace adprom::core {
namespace {

using core::testing::InventoryDbFactory;
using core::testing::InventoryTestCases;
using core::testing::kInventoryAppSource;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto program = prog::ParseProgram(kInventoryAppSource);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    program_ = new prog::Program(std::move(program).value());
    auto system = AdProm::Train(*program_, InventoryDbFactory(),
                                InventoryTestCases());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = new AdProm(std::move(system).value());
  }

  static void TearDownTestSuite() {
    delete system_;
    delete program_;
    system_ = nullptr;
    program_ = nullptr;
  }

  static prog::Program* program_;
  static AdProm* system_;
};

prog::Program* PipelineTest::program_ = nullptr;
AdProm* PipelineTest::system_ = nullptr;

TEST_F(PipelineTest, PctmInvariantsHold) {
  EXPECT_TRUE(system_->analysis().program_ctm.CheckInvariants().ok())
      << system_->analysis().program_ctm.CheckInvariants().ToString();
}

TEST_F(PipelineTest, ProfileIsValidatedHmm) {
  const ApplicationProfile& profile = system_->profile();
  EXPECT_TRUE(profile.model.Validate().ok());
  EXPECT_GT(profile.num_sites, 0u);
  // Below the clustering threshold: one hidden state per site.
  EXPECT_EQ(profile.num_states, profile.num_sites);
}

TEST_F(PipelineTest, AlphabetCoversStaticAndDynamicObservables) {
  const ApplicationProfile& profile = system_->profile();
  EXPECT_TRUE(profile.alphabet.Contains("db_query"));
  EXPECT_TRUE(profile.alphabet.Contains("print_err"));
  // Labeled TD outputs appear with their _Q labels, not as plain calls.
  bool has_labeled = false;
  for (const std::string& symbol : profile.alphabet.symbols()) {
    if (symbol.rfind("print_Q", 0) == 0) has_labeled = true;
  }
  EXPECT_TRUE(has_labeled);
}

TEST_F(PipelineTest, LabeledSourcesResolveTables) {
  const ApplicationProfile& profile = system_->profile();
  ASSERT_FALSE(profile.labeled_sources.empty());
  bool items_found = false;
  for (const auto& [observable, tables] : profile.labeled_sources) {
    for (const std::string& table : tables) {
      if (table == "items") items_found = true;
    }
  }
  EXPECT_TRUE(items_found);
}

TEST_F(PipelineTest, StaticLabelsCoverDynamicLabels) {
  // Property: static taint over-approximates dynamic taint — every _Q
  // observable seen at run time is also a statically labeled site.
  const ApplicationProfile& profile = system_->profile();
  std::set<std::string> static_labels;
  const analysis::Ctm& pctm = system_->analysis().program_ctm;
  for (size_t i = 0; i < pctm.num_sites(); ++i) {
    if (pctm.site(i).labeled) static_labels.insert(pctm.site(i).observable);
  }
  for (const runtime::Trace& trace : system_->training_traces()) {
    for (const runtime::CallEvent& event : trace) {
      if (event.td_output) {
        EXPECT_TRUE(static_labels.count(event.Observable()) > 0)
            << "dynamic label " << event.Observable()
            << " has no static counterpart";
      }
    }
  }
  (void)profile;
}

TEST_F(PipelineTest, TrainingScoresAboveThreshold) {
  // Every training window must score at or above the chosen threshold
  // (the threshold is min CSDS score minus a margin).
  const ApplicationProfile& profile = system_->profile();
  DetectionEngine engine(&profile);
  size_t alarms = 0;
  size_t windows = 0;
  for (const runtime::Trace& trace : system_->training_traces()) {
    for (const Detection& d : engine.MonitorTrace(trace)) {
      ++windows;
      if (d.IsAlarm()) ++alarms;
    }
  }
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(alarms, 0u);
}

TEST_F(PipelineTest, MonitoringBenignRunRaisesNoAlarm) {
  auto result = system_->Monitor(*program_, InventoryDbFactory(),
                                 {{"find", "9", "list"}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->HasAlarm());
}

TEST_F(PipelineTest, CMarkovProfileHasNoLabels) {
  auto system = AdProm::Train(*program_, InventoryDbFactory(),
                              InventoryTestCases(), CMarkovOptions());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  for (const std::string& symbol : system->profile().alphabet.symbols()) {
    EXPECT_EQ(symbol.find("_Q"), std::string::npos) << symbol;
  }
  EXPECT_TRUE(system->profile().labeled_sources.empty());
}

TEST_F(PipelineTest, RandHmmTrainsOnSameData) {
  ProfileOptions options = RandHmmOptions();
  options.train.max_iterations = 5;  // keep the test fast
  auto system = AdProm::Train(*program_, InventoryDbFactory(),
                              InventoryTestCases(), options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_TRUE(system->profile().model.Validate().ok());
}

TEST_F(PipelineTest, ConstructionTimingsPopulated) {
  ConstructionTimings timings;
  auto system = AdProm::Train(*program_, InventoryDbFactory(),
                              InventoryTestCases(), ProfileOptions(),
                              &timings);
  ASSERT_TRUE(system.ok());
  EXPECT_GE(timings.training_seconds, 0.0);
  EXPECT_GE(timings.init_seconds, 0.0);
}

TEST_F(PipelineTest, ProfileSerializationRoundTripsThroughDetection) {
  const std::string text = system_->profile().Serialize();
  auto restored = ApplicationProfile::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The restored profile must classify a benign trace identically.
  DetectionEngine original(&system_->profile());
  DetectionEngine loaded(&*restored);
  const runtime::Trace& trace = system_->training_traces()[0];
  const auto a = original.MonitorTrace(trace);
  const auto b = loaded.MonitorTrace(trace);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flag, b[i].flag);
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9);
  }
}

TEST(PipelineErrorsTest, TrainWithoutTracesFails) {
  auto program = prog::ParseProgram(kInventoryAppSource);
  ASSERT_TRUE(program.ok());
  auto system = AdProm::Train(*program, InventoryDbFactory(), {});
  EXPECT_FALSE(system.ok());
}

TEST(PipelineErrorsTest, ProgramWithoutCallsFails) {
  auto program = prog::ParseProgram("fn main() { var x = 1; }");
  ASSERT_TRUE(program.ok());
  auto system = AdProm::Train(*program, nullptr, {{{}}});
  EXPECT_FALSE(system.ok());
}

// Programs nested exactly to the parser's limit must survive every
// analysis pass, not just the parser: the limit exists to bound the
// recursion of the passes that walk the tree too.
TEST(NestingLimitTest, ProgramsAtTheParserLimitAnalyze) {
  const size_t limit = prog::kMaxNestingDepth;
  const std::string sources[] = {
      prog::testing::NestedParens(limit - 2),
      prog::testing::NestedIfs((limit - 2) / 2),
      prog::testing::ElseIfChain(limit - 4),
      prog::testing::NotChain(limit - 2),
      prog::testing::OperatorChain(limit - 1),
  };
  for (const std::string& source : sources) {
    auto program = prog::ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto analysis = Analyzer().Analyze(*program);
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  }
}

}  // namespace
}  // namespace adprom::core
