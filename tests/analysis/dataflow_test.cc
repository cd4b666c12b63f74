// Tests of the dataflow framework: FlowGraph construction, the generic
// worklist solver, reaching definitions, liveness, and flow-sensitive
// taint through the IFDS engine (labeling and concat-build tracking).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow/flow_graph.h"
#include "analysis/dataflow/ifds.h"
#include "analysis/dataflow/liveness.h"
#include "analysis/dataflow/reaching_defs.h"
#include "analysis/dataflow/solver.h"
#include "analysis/taint.h"
#include "prog/program.h"
#include "util/logging.h"

namespace adprom::analysis::dataflow {
namespace {

prog::Program Parse(const std::string& source) {
  auto program = prog::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

const prog::FunctionDef& FindFn(const prog::Program& program,
                                const std::string& name) {
  for (const prog::FunctionDef& fn : program.functions()) {
    if (fn.name == name) return fn;
  }
  ADPROM_CHECK_MSG(false, "no such function");
  return program.functions()[0];
}

// ---------------------------------------------------------------- FlowGraph

TEST(FlowGraphTest, StraightLineShape) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  a = a + 1;
  print(a);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  EXPECT_EQ(graph.function_name(), "main");
  size_t defs = 0, evals = 0;
  for (const FlowNode& node : graph.nodes()) {
    if (node.op == FlowOp::kDef) ++defs;
    if (node.op == FlowOp::kEval) ++evals;
  }
  EXPECT_EQ(defs, 2u);
  EXPECT_EQ(evals, 1u);
  EXPECT_TRUE(graph.unreachable_lines().empty());
  // Entry reaches exit.
  const std::vector<int> order = graph.ReversePostOrder();
  ASSERT_EQ(order.size(), graph.size());
  EXPECT_EQ(order.front(), graph.entry_id());
}

TEST(FlowGraphTest, DefNodesDistinguishDeclFromAssign) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  a = 2;
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  bool saw_decl = false, saw_assign = false;
  for (const FlowNode& node : graph.nodes()) {
    if (node.op != FlowOp::kDef) continue;
    EXPECT_EQ(node.def, "a");
    if (node.is_decl) saw_decl = true;
    else saw_assign = true;
  }
  EXPECT_TRUE(saw_decl);
  EXPECT_TRUE(saw_assign);
}

TEST(FlowGraphTest, StatementsAfterReturnAreUnreachable) {
  prog::Program program = Parse(R"(
fn main() {
  print("reached");
  return 1;
  print("never");
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  ASSERT_EQ(graph.unreachable_lines().size(), 1u);
  EXPECT_EQ(graph.unreachable_lines()[0], 5);
  // The dead print is not lowered into the graph.
  size_t evals = 0;
  for (const FlowNode& node : graph.nodes()) {
    if (node.op == FlowOp::kEval) ++evals;
  }
  EXPECT_EQ(evals, 1u);
}

TEST(FlowGraphTest, BothBranchesReturningMakeTailUnreachable) {
  prog::Program program = Parse(R"(
fn f(x) {
  if (x > 0) {
    return 1;
  } else {
    return 2;
  }
  print("never");
}
fn main() {
  print(f(1));
}
)");
  const FlowGraph graph = FlowGraph::Build(FindFn(program, "f"));
  ASSERT_EQ(graph.unreachable_lines().size(), 1u);
  EXPECT_EQ(graph.unreachable_lines()[0], 8);
}

TEST(FlowGraphTest, LoopHasBackEdgeAndRpoIsComplete) {
  prog::Program program = Parse(R"(
fn main() {
  var i = 0;
  while (i < 10) {
    i = i + 1;
  }
  print(i);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const std::vector<int> order = graph.ReversePostOrder();
  ASSERT_EQ(order.size(), graph.size());
  std::vector<int> pos(graph.size(), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (int p : pos) EXPECT_GE(p, 0);
  size_t backward = 0;
  for (const FlowNode& node : graph.nodes()) {
    for (int succ : node.succs) {
      // preds/succs must be mirror images.
      const FlowNode& s = graph.node(succ);
      EXPECT_NE(std::find(s.preds.begin(), s.preds.end(), node.id),
                s.preds.end());
      if (pos[static_cast<size_t>(succ)] < pos[static_cast<size_t>(node.id)]) {
        ++backward;
      }
    }
  }
  EXPECT_EQ(backward, 1u);  // exactly the while back edge

  const std::vector<int> border = graph.BackwardReversePostOrder();
  ASSERT_EQ(border.size(), graph.size());
  EXPECT_EQ(border.front(), graph.exit_id());
}

TEST(FlowGraphTest, CollectVarReadsFindsEveryRead) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  var b = 2;
  print(a + b * a, len("x"));
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  for (const FlowNode& node : graph.nodes()) {
    if (node.op != FlowOp::kEval) continue;
    std::vector<std::string> reads;
    CollectVarReads(*node.expr, &reads);
    EXPECT_EQ(reads, (std::vector<std::string>{"a", "b", "a"}));
  }
}

// ------------------------------------------------------------------ solver

// A toy forward client: collects the ids of every branch node on some
// path from the entry to the node. Exercises joins at merge points.
struct BranchTraceClient {
  using Domain = std::set<int>;
  Domain Boundary() const { return {}; }
  void Join(Domain* into, const Domain& from) const {
    into->insert(from.begin(), from.end());
  }
  Domain Transfer(const FlowNode& node, const Domain& in) {
    Domain out = in;
    if (node.op == FlowOp::kBranch) out.insert(node.id);
    return out;
  }
};

TEST(SolverTest, ForwardJoinAccumulatesOverMerges) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  if (a > 0) {
    a = 2;
  }
  while (a < 10) {
    a = a + 1;
  }
  print(a);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  BranchTraceClient client;
  const auto result = Solve(graph, Direction::kForward, &client);
  ASSERT_EQ(result.states.size(), graph.size());
  // The exit has seen both the if branch and the while branch.
  const auto& exit_in = result.states[static_cast<size_t>(graph.exit_id())].in;
  EXPECT_EQ(exit_in.size(), 2u);
  // The entry has seen neither.
  EXPECT_TRUE(
      result.states[static_cast<size_t>(graph.entry_id())].out.empty());
}

// -------------------------------------------------------- reaching defs

TEST(ReachingDefsTest, CheckedProgramHasNoUninitUses) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  if (a > 0) {
    a = 2;
  }
  print(a);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const ReachingDefsResult result = ComputeReachingDefs(graph, {});
  EXPECT_TRUE(result.maybe_uninit.empty());
}

TEST(ReachingDefsTest, BranchLocalDeclIsMaybeUninitAfterMerge) {
  // if (c) { var x = 1; } print(x);  — rejected by the scope checker, but
  // representable as a hand-built AST; the else path reaches the read
  // with no definition.
  prog::FunctionDef fn;
  fn.name = "f";
  fn.params = {"c"};
  prog::StmtList then_body;
  auto decl = prog::Stmt::VarDecl("x", prog::Expr::IntLit(1));
  decl->line = 2;
  then_body.push_back(std::move(decl));
  auto branch =
      prog::Stmt::If(prog::Expr::Var("c"), std::move(then_body), {});
  branch->line = 1;
  fn.body.push_back(std::move(branch));
  std::vector<std::unique_ptr<prog::Expr>> args;
  args.push_back(prog::Expr::Var("x"));
  auto use = prog::Stmt::ExprStmt(prog::Expr::Call("print", std::move(args)));
  use->line = 3;
  fn.body.push_back(std::move(use));

  const FlowGraph graph = FlowGraph::Build(fn);
  const ReachingDefsResult result = ComputeReachingDefs(graph, fn.params);
  ASSERT_EQ(result.maybe_uninit.size(), 1u);
  EXPECT_EQ(result.maybe_uninit[0].variable, "x");
  EXPECT_EQ(result.maybe_uninit[0].line, 3);
}

TEST(ReachingDefsTest, ParametersAreDefinedAtEntry) {
  prog::Program program = Parse(R"(
fn f(x) {
  print(x);
  return x;
}
fn main() {
  print(f(1));
}
)");
  const prog::FunctionDef& fn = FindFn(program, "f");
  const FlowGraph graph = FlowGraph::Build(fn);
  const ReachingDefsResult result = ComputeReachingDefs(graph, fn.params);
  EXPECT_TRUE(result.maybe_uninit.empty());
  // Every read of x sees exactly the parameter pseudo-def.
  for (const FlowNode& node : graph.nodes()) {
    if (node.op != FlowOp::kEval) continue;
    const auto& in = result.in_states[static_cast<size_t>(node.id)];
    ASSERT_TRUE(in.count("x"));
    EXPECT_EQ(in.at("x"), std::set<int>({kParamDef}));
  }
}

TEST(ReachingDefsTest, RedefinitionKillsEarlierDef) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  a = 2;
  print(a);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const ReachingDefsResult result = ComputeReachingDefs(graph, {});
  int second_def = -1;
  for (const FlowNode& node : graph.nodes()) {
    if (node.op == FlowOp::kDef && !node.is_decl) second_def = node.id;
  }
  ASSERT_GE(second_def, 0);
  for (const FlowNode& node : graph.nodes()) {
    if (node.op != FlowOp::kEval) continue;
    const auto& in = result.in_states[static_cast<size_t>(node.id)];
    // Only the reassignment reaches the print.
    EXPECT_EQ(in.at("a"), std::set<int>({second_def}));
  }
}

TEST(ReachingDefsTest, LoopMergesBothDefinitions) {
  prog::Program program = Parse(R"(
fn main() {
  var i = 0;
  while (i < 3) {
    i = i + 1;
  }
  print(i);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const ReachingDefsResult result = ComputeReachingDefs(graph, {});
  for (const FlowNode& node : graph.nodes()) {
    if (node.op != FlowOp::kEval) continue;
    // Both the init and the in-loop increment may produce the printed i.
    EXPECT_EQ(result.in_states[static_cast<size_t>(node.id)].at("i").size(),
              2u);
  }
}

// ------------------------------------------------------------- liveness

TEST(LivenessTest, OverwrittenStoreIsDead) {
  prog::Program program = Parse(R"(
fn main() {
  var a = 1;
  a = 2;
  print(a);
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const LivenessResult result = ComputeLiveness(graph);
  ASSERT_EQ(result.dead_stores.size(), 1u);
  EXPECT_EQ(result.dead_stores[0].variable, "a");
  EXPECT_EQ(result.dead_stores[0].line, 3);
  EXPECT_FALSE(result.dead_stores[0].rhs_has_call);
}

TEST(LivenessTest, StoreReadInLoopIsLive) {
  prog::Program program = Parse(R"(
fn main() {
  var i = 0;
  while (i < 3) {
    i = i + 1;
  }
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const LivenessResult result = ComputeLiveness(graph);
  // i's final increment is dead (nothing reads i after the loop), but the
  // initial store is live (read by the loop condition).
  for (const LivenessResult::DeadStore& store : result.dead_stores) {
    EXPECT_NE(store.line, 3);
  }
}

TEST(LivenessTest, DeadStoreWithCallIsMarked) {
  prog::Program program = Parse(R"(
fn main() {
  var r = db_query("DELETE FROM t");
  r = 0;
}
)");
  const FlowGraph graph = FlowGraph::Build(program.functions()[0]);
  const LivenessResult result = ComputeLiveness(graph);
  ASSERT_EQ(result.dead_stores.size(), 2u);
  EXPECT_TRUE(result.dead_stores[0].rhs_has_call);   // the db_query decl
  EXPECT_FALSE(result.dead_stores[1].rhs_has_call);  // r = 0
}

// --------------------------------------------------- flow-sensitive taint

/// Plain reachability: the labeling the Analyzer uses.
IfdsOptions LabelerOptions() {
  IfdsOptions options;
  options.column_taint = false;
  options.feasibility_filter = false;
  options.witnesses = false;
  return options;
}

util::Result<TaintResult> FlowTaint(const std::string& source) {
  auto program = prog::ParseProgram(source);
  if (!program.ok()) return program.status();
  ADPROM_ASSIGN_OR_RETURN(IfdsResult result,
                          RunIfdsTaint(*program, LabelerOptions()));
  return std::move(result.taint);
}

/// Lint's injection configuration: user input reaching db_query.
IfdsOptions InjectionOptions() {
  IfdsOptions options = LabelerOptions();
  options.config.source_calls = {"scan"};
  options.config.sink_calls = {"db_query"};
  return options;
}

util::Result<TaintResult> FlowInsensitiveTaint(const std::string& source) {
  auto program = prog::ParseProgram(source);
  if (!program.ok()) return program.status();
  return RunTaintAnalysis(*program, TaintConfig::Default());
}

TEST(TaintFlowTest, DirectFlowIsLabeled) {
  auto taint = FlowTaint(R"(
fn main() {
  var r = db_query("SELECT * FROM accounts");
  print(r);
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  EXPECT_EQ(taint->labeled_sinks.size(), 1u);
}

TEST(TaintFlowTest, OverwriteKillsTaint) {
  const std::string source = R"(
fn main() {
  var v = db_query("SELECT * FROM t");
  v = "clean";
  print(v);
}
)";
  auto fs = FlowTaint(source);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_TRUE(fs->labeled_sinks.empty());
  // The flow-insensitive pass cannot kill and labels the print: this is
  // exactly the spurious label the strong update removes.
  auto fi = FlowInsensitiveTaint(source);
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(fi->labeled_sinks.size(), 1u);
}

TEST(TaintFlowTest, SinkBeforeTaintIsNotLabeled) {
  const std::string source = R"(
fn main() {
  var v = "hello";
  print(v);
  v = db_query("SELECT * FROM t");
  print_err(v);
}
)";
  auto fs = FlowTaint(source);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ(fs->labeled_sinks.size(), 1u);  // only the print_err
  auto fi = FlowInsensitiveTaint(source);
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(fi->labeled_sinks.size(), 2u);  // labels both
}

TEST(TaintFlowTest, TaintSurvivesLoops) {
  auto taint = FlowTaint(R"(
fn main() {
  var acc = "";
  var i = 0;
  var r = db_query("SELECT * FROM t");
  while (i < 3) {
    acc = acc + db_getvalue(r, i, 0);
    i = i + 1;
  }
  print(acc);
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  ASSERT_EQ(taint->labeled_sinks.size(), 1u);
  // Both the db_query and the db_getvalue feed the printed accumulator.
  EXPECT_EQ(taint->labeled_sinks.begin()->second.size(), 2u);
}

TEST(TaintFlowTest, ContextSummariesKeepCallersApart) {
  // The flow-insensitive pass merges every caller of id() into one
  // summary, so the clean call is labeled too; per-call-site summary
  // instantiation keeps them apart.
  const std::string source = R"(
fn id(x) {
  return x;
}
fn main() {
  var r = db_query("SELECT * FROM t");
  print(id(r));
  print(id("clean"));
}
)";
  auto fs = FlowTaint(source);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ(fs->labeled_sinks.size(), 1u);
  auto fi = FlowInsensitiveTaint(source);
  ASSERT_TRUE(fi.ok());
  EXPECT_EQ(fi->labeled_sinks.size(), 2u);
}

TEST(TaintFlowTest, ParamToSinkObligationInstantiatedPerCaller) {
  // show() prints its parameter: the sink inside show() is labeled
  // because one caller passes taint, and the source set names the
  // caller's db_query site.
  auto taint = FlowTaint(R"(
fn show(data) {
  print(data);
}
fn main() {
  var r = db_query("SELECT * FROM t");
  show(r);
  show("clean");
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  ASSERT_EQ(taint->labeled_sinks.size(), 1u);
  EXPECT_EQ(taint->labeled_sinks.begin()->second.size(), 1u);
}

TEST(TaintFlowTest, RecursiveFlowConverges) {
  auto taint = FlowTaint(R"(
fn rec(v, n) {
  if (n > 0) {
    rec(v, n - 1);
  }
  print(v);
}
fn main() {
  var r = db_query("SELECT * FROM t");
  rec(r, 3);
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  EXPECT_EQ(taint->labeled_sinks.size(), 1u);
}

TEST(TaintFlowTest, ReturnValueCarriesTaint) {
  auto taint = FlowTaint(R"(
fn fetch() {
  return db_query("SELECT * FROM t");
}
fn main() {
  print(fetch());
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  EXPECT_EQ(taint->labeled_sinks.size(), 1u);
}

TEST(TaintFlowTest, TaintedVarsAreDiagnosed) {
  auto taint = FlowTaint(R"(
fn main() {
  var r = db_query("SELECT * FROM t");
  var copy = r;
  print(copy);
}
)");
  ASSERT_TRUE(taint.ok()) << taint.status().ToString();
  ASSERT_TRUE(taint->tainted_vars.count("main"));
  EXPECT_TRUE(taint->tainted_vars.at("main").count("r"));
  EXPECT_TRUE(taint->tainted_vars.at("main").count("copy"));
}

TEST(TaintFlowTest, SanitizerStopsTheFlow) {
  prog::Program program = Parse(R"(
fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE id = ";
  q = q + to_int(needle);
  var r = db_query(q);
  print(r);
}
)");
  IfdsOptions options = InjectionOptions();
  options.sanitizer_calls = {"to_int"};
  auto result = RunIfdsTaint(program, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->taint.labeled_sinks.empty());
}

TEST(TaintFlowTest, ConcatBuildTrackingFlagsIncrementalQueries) {
  prog::Program program = Parse(R"(
fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE name = '";
  q = q + needle;
  q = q + "'";
  var r = db_query(q);
  print(r);
}
)");
  IfdsOptions options = InjectionOptions();
  options.track_concat_builds = true;
  auto result = RunIfdsTaint(program, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->taint.labeled_sinks.size(), 1u);
  ASSERT_EQ(result->sink_concat_builds.size(), 1u);
  EXPECT_EQ(result->sink_concat_builds.begin()->first,
            result->taint.labeled_sinks.begin()->first);
  ASSERT_FALSE(result->concat_sites.empty());
  EXPECT_EQ(result->concat_sites[0].variable, "q");
}

TEST(TaintFlowTest, ConcatBuildsFlowThroughSummaries) {
  // The append happens in build() and the query runs in run(): the append
  // token rides build()'s return summary into main and run()'s parameter
  // obligation down to the db_query, yet it never becomes a labeled
  // source, a tainted-variable token or a witness.
  prog::Program program = Parse(R"(
fn build(needle) {
  var q = "SELECT * FROM t WHERE name = '";
  q = q + needle;
  return q;
}
fn run(query) {
  return db_query(query);
}
fn main() {
  var needle = scan();
  var r = run(build(needle));
  print(r);
}
)");
  IfdsOptions options = InjectionOptions();
  options.track_concat_builds = true;
  options.witnesses = true;
  auto result = RunIfdsTaint(program, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->concat_sites.size(), 1u);
  EXPECT_EQ(result->concat_sites[0].function, "build");
  ASSERT_EQ(result->taint.labeled_sinks.size(), 1u);
  const auto& [sink, sources] = *result->taint.labeled_sinks.begin();
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(result->sink_concat_builds,
            (std::map<int, std::set<int>>{{sink, {0}}}));
  ASSERT_EQ(result->witnesses.size(), 1u);
  EXPECT_EQ(result->witnesses[0].source_site, *sources.begin());
  EXPECT_EQ(result->witnesses[0].source_call, "scan");
  for (const auto& [fn, vars] : result->taint.tainted_vars) {
    for (const auto& [var, tokens] : vars) {
      EXPECT_EQ(tokens, sources) << fn << "." << var;
    }
  }
}

TEST(TaintFlowTest, SingleExpressionConcatIsNotAConcatBuild) {
  // Building the query in one expression (the hospital/supermarket apps'
  // style) is not the Fig. 2 strcat pattern.
  prog::Program program = Parse(R"(
fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE id = " + needle;
  var r = db_query(q);
  print(r);
}
)");
  IfdsOptions options = InjectionOptions();
  options.track_concat_builds = true;
  auto result = RunIfdsTaint(program, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->taint.labeled_sinks.size(), 1u);
  EXPECT_TRUE(result->sink_concat_builds.empty());
}

}  // namespace
}  // namespace adprom::analysis::dataflow
