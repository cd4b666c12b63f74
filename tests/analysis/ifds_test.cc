// Unit tests of the IFDS taint engine's demand-driven tiers: plain
// reachability keeps every taint fact, the feasibility
// filter prunes contradicting-guard flows, witnesses trace real CFG
// paths through callees, and column resolution expands SELECT * via the
// schema catalog.

#include "analysis/dataflow/ifds.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "prog/program.h"

namespace adprom::analysis::dataflow {
namespace {

prog::Program Parse(const std::string& source) {
  auto program = prog::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

IfdsResult RunOn(const std::string& source, IfdsOptions options = {}) {
  const prog::Program program = Parse(source);
  auto result = RunIfdsTaint(program, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The witness demo: the tainted value only reaches `out` when mode < 1,
// and send_file only runs when mode > 0.
const char* kGuardedLeak = R"(
fn fetch_secret(r, idx) {
  return db_getvalue(r, idx, 1);
}

fn main() {
  var mode = to_int(scan());
  var r = db_query("SELECT name, ssn FROM patients");
  var out = "summary";
  if (mode < 1) {
    out = fetch_secret(r, 0);
  }
  if (mode > 0) {
    send_file(out);
  }
  print(out);
}
)";

TEST(IfdsTest, RequiresFinalizedProgram) {
  prog::Program program;
  auto result = RunIfdsTaint(program, {});
  EXPECT_FALSE(result.ok());
}

TEST(IfdsTest, StraightLineFlowIsLabeledAndFeasible) {
  const IfdsResult result = RunOn(R"(
fn main() {
  var r = db_query("SELECT a FROM t");
  print(r);
}
)");
  ASSERT_EQ(result.taint.labeled_sinks.size(), 1u);
  EXPECT_TRUE(result.pruned_sinks.empty());
  EXPECT_EQ(result.stats.pruned_facts, 0u);
  ASSERT_EQ(result.witnesses.size(), 1u);
  EXPECT_TRUE(result.witnesses[0].feasible);
  EXPECT_EQ(result.witnesses[0].source_call, "db_query");
  EXPECT_EQ(result.witnesses[0].sink_call, "print");
}

TEST(IfdsTest, SanitizerCutsTheFlow) {
  IfdsOptions options;
  options.sanitizer_calls = {"to_int"};
  const IfdsResult result = RunOn(R"(
fn main() {
  var r = db_query("SELECT a FROM t");
  print(to_int(r));
}
)",
                                  options);
  EXPECT_TRUE(result.taint.labeled_sinks.empty());
  EXPECT_TRUE(result.witnesses.empty());
}

TEST(IfdsTest, ContradictingGuardsArePruned) {
  const IfdsResult result = RunOn(kGuardedLeak);
  // The print sink keeps both facts (feasible: print runs on all paths).
  std::set<std::string> feasible_sinks;
  std::set<std::string> pruned_sinks;
  for (const LeakWitness& w : result.witnesses) {
    (w.feasible ? &feasible_sinks : &pruned_sinks)->insert(w.sink_call);
  }
  EXPECT_TRUE(feasible_sinks.count("print") > 0);
  // send_file facts are provably infeasible: mode < 1 contradicts
  // mode > 0.
  EXPECT_TRUE(pruned_sinks.count("send_file") > 0);
  EXPECT_FALSE(feasible_sinks.count("send_file") > 0);
  ASSERT_FALSE(result.pruned_sinks.empty());
  EXPECT_EQ(result.stats.pruned_facts, 2u);  // db_query + db_getvalue tokens
  // The pruned witness names the refuted branch.
  for (const LeakWitness& w : result.witnesses) {
    if (w.feasible) continue;
    EXPECT_GT(w.pruned_line, 0);
    EXPECT_NE(w.pruned_condition.find("mode"), std::string::npos)
        << FormatWitness(w);
  }
}

TEST(IfdsTest, FilterOffKeepsEveryFact) {
  IfdsOptions options;
  options.feasibility_filter = false;
  const IfdsResult result = RunOn(kGuardedLeak, options);
  EXPECT_TRUE(result.pruned_sinks.empty());
  std::set<std::string> sinks;
  for (const LeakWitness& w : result.witnesses) {
    EXPECT_TRUE(w.feasible);
    sinks.insert(w.sink_call);
  }
  EXPECT_TRUE(sinks.count("send_file") > 0);
}

TEST(IfdsTest, CompatibleGuardsSurviveTheFilter) {
  // Same shape, but both guards agree (mode > 0 twice): nothing prunes.
  const IfdsResult result = RunOn(R"(
fn main() {
  var mode = to_int(scan());
  var r = db_query("SELECT a FROM t");
  var out = "summary";
  if (mode > 0) {
    out = r;
  }
  if (mode > 0) {
    send_file(out);
  }
}
)");
  EXPECT_TRUE(result.pruned_sinks.empty());
  ASSERT_EQ(result.witnesses.size(), 1u);
  EXPECT_TRUE(result.witnesses[0].feasible);
  EXPECT_EQ(result.witnesses[0].sink_call, "send_file");
}

TEST(IfdsTest, WitnessCrossesCalleeViaSummary) {
  const IfdsResult result = RunOn(R"(
fn leak(v) {
  send_net("collector", v);
}

fn main() {
  var r = db_query("SELECT a FROM t");
  leak(r);
}
)");
  ASSERT_EQ(result.witnesses.size(), 1u);
  const LeakWitness& w = result.witnesses[0];
  EXPECT_TRUE(w.feasible);
  EXPECT_EQ(w.sink_call, "send_net");
  // The path starts in main and ends on the sink call inside `leak`.
  ASSERT_FALSE(w.steps.empty());
  EXPECT_EQ(w.steps.front().function, "main");
  EXPECT_EQ(w.steps.back().function, "leak");
  EXPECT_NE(w.steps.back().text.find("send_net"), std::string::npos);
}

TEST(IfdsTest, ObligationFeasibilityIsCheckedInTheCallee) {
  // The callee's own guard pair makes the sink unreachable for its
  // parameter: the caller-side fact must be pruned through the
  // obligation, even though the caller has no branches at all.
  const IfdsResult result = RunOn(R"(
fn maybe_leak(v, mode) {
  var out = "summary";
  if (mode < 1) {
    out = v;
  }
  if (mode > 0) {
    send_file(out);
  }
}

fn main() {
  var r = db_query("SELECT a FROM t");
  maybe_leak(r, to_int(scan()));
}
)");
  EXPECT_TRUE(result.taint.labeled_sinks.empty());
  ASSERT_EQ(result.pruned_sinks.size(), 1u);
  EXPECT_EQ(result.stats.pruned_facts, 1u);
}

TEST(IfdsTest, WitnessStepsAreRealCfgEdges) {
  const IfdsResult result = RunOn(kGuardedLeak);
  const prog::Program program = Parse(kGuardedLeak);
  for (const LeakWitness& w : result.witnesses) {
    // Consecutive steps within one function must be connected in its
    // flow graph (steps may skip join/exit nodes, so check reachability
    // over a bounded number of structural hops).
    ASSERT_FALSE(w.steps.empty()) << FormatWitness(w);
    for (const WitnessStep& s : w.steps) {
      EXPECT_NE(program.FindFunction(s.function), nullptr);
      EXPECT_GE(s.node_id, 0);
    }
  }
}

TEST(IfdsTest, FormatWitnessShowsBranchesAndPrunes) {
  const IfdsResult result = RunOn(kGuardedLeak);
  bool saw_pruned = false;
  for (const LeakWitness& w : result.witnesses) {
    const std::string text = FormatWitness(w);
    if (w.feasible) continue;
    saw_pruned = true;
    EXPECT_NE(text.find("[infeasible]"), std::string::npos) << text;
    EXPECT_NE(text.find("pruned: line"), std::string::npos) << text;
    EXPECT_NE(text.find("[takes "), std::string::npos) << text;
  }
  EXPECT_TRUE(saw_pruned);
}

TEST(IfdsTest, WitnessToDotIsWellFormed) {
  const IfdsResult result = RunOn(kGuardedLeak);
  ASSERT_FALSE(result.witnesses.empty());
  for (const LeakWitness& w : result.witnesses) {
    const std::string dot = WitnessToDot(w);
    EXPECT_EQ(dot.rfind("digraph witness {", 0), 0u);
    EXPECT_NE(dot.find("}\n"), std::string::npos);
    if (!w.feasible) {
      EXPECT_NE(dot.find("REFUTED"), std::string::npos) << dot;
    }
  }
}

TEST(IfdsTest, SourceColumnsParseStaticQueries) {
  const prog::Program program = Parse(R"(
fn main() {
  var r = db_query("SELECT name, ssn FROM patients");
  var s = db_query("SELECT * FROM patients");
  var t = db_query("SELECT * FROM unknown_table");
  var u = db_query(scan());
  print(r);
}
)");
  std::vector<const prog::Expr*> queries;
  for (const auto& fn : program.functions()) {
    for (const auto& stmt : fn.body) {
      if (stmt->expr != nullptr) prog::CollectCalls(*stmt->expr, &queries);
    }
  }
  std::vector<const prog::Expr*> db_queries;
  for (const prog::Expr* call : queries) {
    if (call->name == "db_query") db_queries.push_back(call);
  }
  ASSERT_EQ(db_queries.size(), 4u);

  auto catalog = db::BuildSchemaCatalog(
      {"CREATE TABLE patients (name TEXT, ssn TEXT)"});
  ASSERT_TRUE(catalog.ok());

  EXPECT_EQ(SourceColumnsForCall(*db_queries[0], *catalog),
            (std::vector<std::string>{"patients.name", "patients.ssn"}));
  // SELECT * expands through the catalog.
  EXPECT_EQ(SourceColumnsForCall(*db_queries[1], *catalog),
            (std::vector<std::string>{"patients.name", "patients.ssn"}));
  // Unknown table: the wildcard stays symbolic.
  EXPECT_EQ(SourceColumnsForCall(*db_queries[2], *catalog),
            (std::vector<std::string>{"unknown_table.*"}));
  // Dynamic query text: no columns.
  EXPECT_TRUE(SourceColumnsForCall(*db_queries[3], *catalog).empty());
}

TEST(IfdsTest, ColumnsFlowIntoResultMaps) {
  IfdsOptions options;
  auto catalog = db::BuildSchemaCatalog(
      {"CREATE TABLE patients (name TEXT, ssn TEXT)"});
  ASSERT_TRUE(catalog.ok());
  options.schemas = *catalog;
  const IfdsResult result = RunOn(R"(
fn main() {
  var r = db_query("SELECT * FROM patients");
  print(r);
}
)",
                                  options);
  ASSERT_EQ(result.source_columns.size(), 1u);
  EXPECT_EQ(result.source_columns.begin()->second,
            (std::vector<std::string>{"patients.name", "patients.ssn"}));
  ASSERT_EQ(result.sink_columns.size(), 1u);
  EXPECT_EQ(result.sink_columns.begin()->second,
            (std::vector<std::string>{"patients.name", "patients.ssn"}));
  ASSERT_EQ(result.witnesses.size(), 1u);
  EXPECT_EQ(result.witnesses[0].columns,
            (std::vector<std::string>{"patients.name", "patients.ssn"}));
}

TEST(IfdsTest, ColumnTaintCanBeDisabled) {
  IfdsOptions options;
  options.column_taint = false;
  const IfdsResult result = RunOn(R"(
fn main() {
  var r = db_query("SELECT a FROM t");
  print(r);
}
)",
                                  options);
  EXPECT_TRUE(result.source_columns.empty());
  EXPECT_TRUE(result.sink_columns.empty());
  EXPECT_FALSE(result.taint.labeled_sinks.empty());
}

TEST(IfdsTest, RecursiveFunctionsConvergeAndKeepFacts) {
  const IfdsResult result = RunOn(R"(
fn walk(v, n) {
  if (n > 0) {
    walk(v, n - 1);
  }
  send_net("collector", v);
}

fn main() {
  var r = db_query("SELECT a FROM t");
  walk(r, 3);
}
)");
  // Recursion skips the feasibility filter: the fact survives.
  ASSERT_EQ(result.taint.labeled_sinks.size(), 1u);
  EXPECT_TRUE(result.pruned_sinks.empty());
}

TEST(IfdsTest, DemoSampleMatchesHandAnalysis) {
  const std::string source =
      ReadFileOrDie(std::string(ADPROM_SOURCE_DIR) +
                    "/samples/witness/leak.mini");
  const IfdsResult result = RunOn(source);
  size_t pruned_send_file = 0;
  for (const LeakWitness& w : result.witnesses) {
    if (w.sink_call == "send_file") {
      EXPECT_FALSE(w.feasible) << FormatWitness(w);
      ++pruned_send_file;
    }
    if (w.sink_call == "print") {
      EXPECT_TRUE(w.feasible) << FormatWitness(w);
    }
  }
  EXPECT_EQ(pruned_send_file, 2u);
}

TEST(IfdsTest, StatsAreFilled) {
  const IfdsResult result = RunOn(kGuardedLeak);
  EXPECT_EQ(result.stats.functions, 2u);
  EXPECT_GT(result.stats.demanded_solves, 0u);
  EXPECT_GT(result.stats.sink_facts, 0u);
  EXPECT_GT(result.stats.exploded_nodes, 0u);
  EXPECT_GT(result.stats.summary_edges, 0u);
}

}  // namespace
}  // namespace adprom::analysis::dataflow
