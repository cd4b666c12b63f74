#ifndef ADPROM_CORE_ANALYZER_H_
#define ADPROM_CORE_ANALYZER_H_

#include <map>
#include <set>
#include <string>

#include "analysis/absint/cfg_refiner.h"
#include "analysis/absint/engine.h"
#include "analysis/aggregation.h"
#include "analysis/ctm.h"
#include "analysis/forecast.h"
#include "analysis/summary_cache.h"
#include "analysis/taint.h"
#include "db/schema.h"
#include "prog/call_graph.h"
#include "prog/cfg.h"
#include "prog/program.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::core {

/// Everything the static Analyzer derives from an application program:
/// CFGs, call graph, the DDG (taint) with labeled output sites, the
/// labeled per-function CTMs, and the aggregated program CTM (pCTM).
struct AnalysisResult {
  std::map<std::string, prog::Cfg> cfgs;
  prog::CallGraph call_graph;
  analysis::TaintResult taint;
  /// Branch facts and diagnostics from the abstract interpreter (empty
  /// when absint_refinement is off).
  analysis::absint::AbsintResult absint;
  /// Edges pruned / loops bounded by the CFG refiner.
  analysis::absint::RefinementSummary refinement;
  std::map<std::string, analysis::Ctm> function_ctms;
  analysis::Ctm program_ctm;
  /// Wall-clock seconds per step, for the Table VIII bench and
  /// `adprom analyze --stats`.
  double cfg_seconds = 0.0;
  double absint_seconds = 0.0;
  double taint_seconds = 0.0;
  double forecast_seconds = 0.0;
  double aggregation_seconds = 0.0;
  /// Hit/miss counts of the analyzer's aggregation memo for this run (all
  /// misses on an analyzer's first Analyze call, hits for every function
  /// whose transitive callee CTMs are unchanged on later calls).
  analysis::AggregationStats aggregation_stats;
  /// Per-pass summary-cache counters for this run (all zero when the
  /// incremental cache is disabled).
  analysis::AnalysisCacheStats cache_stats;

  /// All (caller function, callee) pairs that appear as call sites in the
  /// program — the context set the Detection Engine checks for the
  /// OutOfContext flag.
  std::set<std::pair<std::string, std::string>> ContextPairs() const;
};

struct AnalyzerOptions {
  analysis::TaintConfig taint_config = analysis::TaintConfig::Default();
  /// Ablation switch: label the DDG with the original flow-insensitive
  /// taint pass instead of the IFDS engine (`RunIfdsTaint` with the
  /// feasibility filter and witnesses off). The flow-sensitive default
  /// labels a subset of the same sinks (strong updates kill stale taint),
  /// shrinking the DataLeak alphabet.
  bool flow_insensitive_taint = false;
  /// Abstract interpretation (constants + intervals) over each function:
  /// statically infeasible branch edges are pruned from the forecast and
  /// counted loops replace the run-once assumption with their exact trip
  /// count, sharpening the pCTM. Off (`--no-absint`) reproduces the
  /// unrefined pipeline bit for bit.
  bool absint_refinement = true;
  /// Column-level DDG provenance: labeled sites additionally carry the
  /// sorted `table.column` sets their sources can read, resolved from
  /// static query literals (`SELECT *` expands through `schemas`). The
  /// ablation (`--no-column-taint`) leaves `Site::source_columns` empty;
  /// everything else in the pCTM — and the serialized profile — is
  /// bit-identical either way.
  bool column_taint = true;
  /// CREATE TABLE schemas for the column expansion (may be empty).
  db::SchemaCatalog schemas;
  /// Optional pool for the IFDS labeler and the abstract interpreter
  /// (call-graph SCCs of one level run concurrently); results are
  /// identical for any pool.
  util::ThreadPool* pool = nullptr;
  /// Master switch for the incremental per-function summary caches
  /// (taint, absint, forecast). Off reproduces the uncached pipeline —
  /// results are bit-identical either way (property-tested); only the
  /// warm-rerun cost and the reported cache stats change. The aggregation
  /// memo predates this switch and stays on regardless.
  bool incremental = true;
  /// Optional external cache (e.g. one loaded from an `--analysis-cache`
  /// directory and saved back after the run). When null the analyzer uses
  /// its own private cache, which survives across Analyze calls on the
  /// same analyzer but not across analyzers.
  analysis::AnalysisCache* analysis_cache = nullptr;
};

/// The paper's Analyzer component: performs the whole static phase —
/// CFG/CG extraction, data-flow (DDG) labeling, probability forecast, and
/// CTM aggregation — on one application program.
class Analyzer {
 public:
  Analyzer() : Analyzer(AnalyzerOptions()) {}
  explicit Analyzer(AnalyzerOptions options);

  /// Analyzes a finalized program. Repeated calls on the same analyzer
  /// reuse the per-function aggregation memo: functions whose own CTM and
  /// transitive callee CTMs are unchanged skip the (quadratic) elimination
  /// and copy the cached result, which keeps the pCTM bit-identical.
  util::Result<AnalysisResult> Analyze(const prog::Program& program) const;

 private:
  /// The cache in effect for this analyzer: the external one when
  /// `options_.analysis_cache` is set, else the private `cache_`.
  analysis::AnalysisCache* cache() const;

  AnalyzerOptions options_;
  /// Private cache (summary stores + aggregation memo) used when no
  /// external cache is supplied. It survives across Analyze calls but not
  /// across analyzers. Mutable: Analyze is logically const (identical
  /// output with or without the cache). Not thread-safe — don't call
  /// Analyze on one analyzer from several threads at once.
  mutable analysis::AnalysisCache cache_;
};

}  // namespace adprom::core

#endif  // ADPROM_CORE_ANALYZER_H_
