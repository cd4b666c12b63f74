// Property tests of the flow-sensitive DDG labeler (the IFDS engine with
// the feasibility filter and witnesses off) on generator-fuzzed programs:
// its labels are a subset of the flow-insensitive pass's labels (strong
// updates only ever remove spurious flows), the fixpoint is bit-identical
// for every thread-pool size, the Analyzer's default labels exactly what
// the labeler does, and its ablation flag reproduces the legacy pass
// exactly. (That dynamic taint stays statically covered under the
// flow-sensitive default is checked end-to-end by
// core/taint_property_test.cc.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/dataflow/ifds.h"
#include "analysis/taint.h"
#include "core/analyzer.h"
#include "prog/generator.h"
#include "prog/printer.h"
#include "util/thread_pool.h"

namespace adprom::analysis::dataflow {
namespace {

/// The DDG labeler as the Analyzer runs it.
util::Result<TaintResult> Label(const prog::Program& program,
                                util::ThreadPool* pool = nullptr) {
  IfdsOptions options;
  options.column_taint = false;
  options.feasibility_filter = false;
  options.witnesses = false;
  options.pool = pool;
  ADPROM_ASSIGN_OR_RETURN(IfdsResult result, RunIfdsTaint(program, options));
  return std::move(result.taint);
}

class TaintFlowPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  prog::Program Generate() {
    util::Rng rng(GetParam());
    prog::GeneratorOptions options;
    options.with_db_calls = true;
    options.num_functions = 3;
    options.max_depth = 2;
    options.max_block_statements = 4;
    auto program = prog::GenerateRandomProgram(options, rng);
    EXPECT_TRUE(program.ok());
    return std::move(program).value();
  }
};

TEST_P(TaintFlowPropertyTest, FlowSensitiveLabelsAreASubset) {
  const prog::Program program = Generate();
  auto fs = Label(program);
  auto fi = RunTaintAnalysis(program, TaintConfig::Default());
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE(fi.ok()) << fi.status().ToString();
  for (const auto& [site, sources] : fs->labeled_sinks) {
    auto it = fi->labeled_sinks.find(site);
    ASSERT_NE(it, fi->labeled_sinks.end())
        << "flow-sensitive labeled site " << site
        << " that the flow-insensitive pass does not, in:\n"
        << prog::ProgramToSource(program);
    for (int source : sources) {
      EXPECT_TRUE(it->second.count(source) > 0)
          << "site " << site << " source " << source << " in:\n"
          << prog::ProgramToSource(program);
    }
  }
}

TEST_P(TaintFlowPropertyTest, FixpointIsIdenticalForEveryPoolSize) {
  const prog::Program program = Generate();
  auto serial = Label(program);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    auto pooled = Label(program, &pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    EXPECT_TRUE(pooled->labeled_sinks == serial->labeled_sinks &&
                pooled->tainted_vars == serial->tainted_vars)
        << "pool size " << threads << " diverged on:\n"
        << prog::ProgramToSource(program);
  }
}

TEST_P(TaintFlowPropertyTest, AblationFlagReproducesLegacyPass) {
  const prog::Program program = Generate();

  core::AnalyzerOptions legacy_options;
  legacy_options.flow_insensitive_taint = true;
  core::Analyzer legacy(legacy_options);
  auto legacy_result = legacy.Analyze(program);
  ASSERT_TRUE(legacy_result.ok()) << legacy_result.status().ToString();
  auto fi = RunTaintAnalysis(program, TaintConfig::Default());
  ASSERT_TRUE(fi.ok());
  EXPECT_TRUE(legacy_result->taint.labeled_sinks == fi->labeled_sinks &&
              legacy_result->taint.tainted_vars == fi->tainted_vars);

  core::Analyzer modern;
  auto modern_result = modern.Analyze(program);
  ASSERT_TRUE(modern_result.ok()) << modern_result.status().ToString();
  auto fs = Label(program);
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE(modern_result->taint.labeled_sinks == fs->labeled_sinks &&
              modern_result->taint.tainted_vars == fs->tainted_vars);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintFlowPropertyTest,
                         ::testing::Range<uint64_t>(100, 120));

}  // namespace
}  // namespace adprom::analysis::dataflow
