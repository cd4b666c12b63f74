#ifndef ADPROM_ANALYSIS_DATAFLOW_IFDS_H_
#define ADPROM_ANALYSIS_DATAFLOW_IFDS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/summary_cache.h"
#include "analysis/taint.h"
#include "db/schema.h"
#include "prog/program.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::analysis::dataflow {

/// The flow-sensitive taint engine: it labels the Analyzer's DDG and runs
/// both taint checks of `adprom lint`.
///
/// Solves the flow-sensitive taint problem as reachability on the IFDS
/// exploded supergraph: the facts are (variable, source-token) pairs per
/// flow node, assignment is a strong update, the per-call-site summary
/// edges are the per-function (return-tokens, parameter-to-sink
/// obligation) summaries instantiated at every call, and the solve is
/// scheduled bottom-up over call-graph SCC levels. With the feasibility
/// filter off the labeled-sink facts are the plain flow-sensitive
/// labeling, a subset of the flow-insensitive `RunTaintAnalysis` result
/// (strong updates kill stale taint, and per-call-site instantiation
/// never invents a flow the global union lacks).
///
/// On top of plain reachability the engine adds the demand-driven tier
/// the paper's labeling cannot express:
///   * witnesses — for every source->sink fact, a shortest CFG-realizable
///     path from the source call to the sink call, reconstructed by a
///     breadth-first walk of the exploded graph restricted to the solved
///     fixpoint (so every step is a real CFG edge along which the fact
///     flows), spliced through callees via the summary that carried it;
///   * feasibility — per demanded (function, token) a conditioned
///     abstract-interpretation fixpoint that carries, next to the plain
///     path state ("lambda"), one abstract state per taint-carrying
///     variable joined only over the paths the token actually flowed on.
///     Branch refinements (replayed through the absint Interval engine)
///     drop a carrier when they contradict its state; a sink fact whose
///     carriers are all dropped is *provably* infeasible — the carrier
///     state over-approximates every concrete path that could realize the
///     flow — and is discarded from the result;
///   * columns — source call sites whose query text is a static literal
///     are resolved to the `table.column` sets they can read, expanding
///     `SELECT *` through the DB schema catalog.
struct IfdsOptions {
  TaintConfig config = TaintConfig::Default();
  /// Library calls whose result is clean regardless of argument taint.
  std::set<std::string> sanitizer_calls;
  /// CREATE TABLE schemas for `SELECT *` expansion (may be empty).
  db::SchemaCatalog schemas;
  /// Resolve per-source `table.column` sets from static query literals.
  bool column_taint = true;
  /// Discard sink facts whose conditioned replay proves every realizing
  /// path infeasible. Off => the result equals the plain flow-sensitive
  /// taint facts.
  bool feasibility_filter = true;
  /// Reconstruct a witness path per (sink, source) fact.
  bool witnesses = true;
  /// Register every `v = v + <tainted>` reassignment (the paper's Fig. 2
  /// strcat-style incremental query construction) and report which sink
  /// sites receive values built through such appends. Append tokens flow
  /// like source tokens but never become labeled facts or witnesses.
  bool track_concat_builds = false;
  /// Optional pool; results are bit-identical for any pool size.
  util::ThreadPool* pool = nullptr;
  /// Optional incremental store: per-function {summary, sink facts with
  /// sealed feasibility verdicts, append tokens at sinks, witness
  /// provenance inputs, feasible obligations} keyed by the function's body
  /// hash and its append-site indices, chained with each callee's
  /// caller-visible surface (name, parameter names, summary value hash)
  /// and an options fingerprint (schemas included — a schema edit
  /// conservatively invalidates). A hit skips the fixpoint, the
  /// conditioned feasibility solves and the post-pass; functions on a
  /// demanded witness path are lazily re-solved during reconstruction.
  /// Results are bit-identical with or without the cache
  /// (property-tested). nullptr disables caching.
  SummaryStore* summary_cache = nullptr;
};

/// One step of a witness path: a flow-graph node of `function`, rendered.
struct WitnessStep {
  std::string function;
  int node_id = -1;
  int line = 0;
  std::string text;
  bool is_branch = false;
  /// Valid when `is_branch`: the branch direction the path takes.
  bool branch_taken = false;

  bool operator==(const WitnessStep&) const = default;
};

/// A source->sink leakage witness: the shortest realizable path the taint
/// fact flows along, plus the feasibility verdict of its conditioned
/// replay.
struct LeakWitness {
  int sink_site = -1;    // call_site_id of the sink call
  int source_site = -1;  // call_site_id of the source call (the token)
  std::string sink_call;
  std::string source_call;
  /// `table.column` set the source can read (empty when not static).
  std::vector<std::string> columns;
  std::vector<WitnessStep> steps;
  bool feasible = true;
  /// When infeasible: the first branch of the rendered path whose
  /// condition the interval replay refutes, and the refuted condition.
  int pruned_line = 0;
  std::string pruned_condition;
};

/// A registered incremental string-append site (`v = v + ...` carrying
/// taint), when `track_concat_builds` is on.
struct ConcatBuildSite {
  std::string function;
  std::string variable;
  int line = 0;
};

struct IfdsStats {
  size_t functions = 0;
  /// Conditioned feasibility solves run (one per demanded fn x token).
  size_t demanded_solves = 0;
  /// Exploded-graph states visited by the witness reconstruction walks.
  size_t exploded_nodes = 0;
  /// Instantiated summary-edge applications observed at call sites.
  size_t summary_edges = 0;
  size_t sink_facts = 0;    // distinct (sink, source) facts before filter
  size_t pruned_facts = 0;  // facts discarded as provably infeasible
};

struct IfdsResult {
  /// Feasibility-filtered taint facts (labeled_sinks ⊆ the unfiltered
  /// labeling; equal when the filter is off or nothing is infeasible).
  /// `tainted_vars` is diagnostic and reports direct flows only.
  TaintResult taint;
  /// sink site -> source tokens discarded as provably infeasible.
  std::map<int, std::set<int>> pruned_sinks;
  /// source site -> sorted `table.column` set it can read.
  std::map<int, std::vector<std::string>> source_columns;
  /// sink site -> sorted union of its *feasible* sources' columns.
  std::map<int, std::vector<std::string>> sink_columns;
  /// One witness per (sink, source) fact — feasible and pruned ones —
  /// sorted by (sink, source). Empty when `witnesses` is off.
  std::vector<LeakWitness> witnesses;
  /// All registered append sites, in program order (empty unless
  /// `track_concat_builds`).
  std::vector<ConcatBuildSite> concat_sites;
  /// Sink call_site_id -> indices into `concat_sites` whose appended value
  /// may reach it. A sink present both here and in `taint.labeled_sinks`
  /// receives tainted data built by incremental concatenation: the App_b
  /// injection pattern.
  std::map<int, std::set<int>> sink_concat_builds;
  IfdsStats stats;
  /// Summary-cache counters for this run (all zero when no cache is set).
  PassCacheStats cache_stats;
};

/// Runs the engine over a finalized program. Deterministic: bit-identical
/// results for any thread pool.
util::Result<IfdsResult> RunIfdsTaint(const prog::Program& program,
                                      const IfdsOptions& options = {});

/// Renders a witness as an annotated per-line path.
std::string FormatWitness(const LeakWitness& w);

/// Renders a witness as a Graphviz digraph; when the witness is pruned
/// the refuted branch step is highlighted.
std::string WitnessToDot(const LeakWitness& w);

/// The `table.column` set a source call can read, resolved from the
/// string literals of its argument expression: `SELECT a, b FROM t` gives
/// {"t.a", "t.b"}; `SELECT *` expands through `schemas` (or "t.*" when
/// the table is not in the catalog). Empty for non-query sources and
/// non-static query texts.
std::vector<std::string> SourceColumnsForCall(const prog::Expr& call,
                                              const db::SchemaCatalog& schemas);

}  // namespace adprom::analysis::dataflow

#endif  // ADPROM_ANALYSIS_DATAFLOW_IFDS_H_
