#include "core/analyzer.h"

#include <chrono>

#include "analysis/dataflow/ifds.h"
#include "analysis/hashing.h"
#include "analysis/incremental.h"
#include "analysis/labeling.h"
#include "util/logging.h"

namespace adprom::core {

namespace {

double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Value hash of the branch facts feeding one function's CFG refinement.
/// The refined CFG — and with it the pre-label forecast CTM — is a pure
/// function of (body, these facts), so the forecast cache keys on both.
uint64_t HashAbsintFacts(const analysis::absint::FunctionAbsint* fn) {
  if (fn == nullptr) return 0;
  analysis::Hasher h;
  h.Size(fn->branches.size());
  for (const analysis::absint::BranchFact& b : fn->branches) {
    h.Bool(b.is_loop)
        .I64(b.line)
        .Bool(b.condition_is_literal)
        .U64(static_cast<uint64_t>(b.verdict))
        .Bool(b.entered)
        .I64(b.trip_count);
  }
  return h.digest();
}

}  // namespace

std::set<std::pair<std::string, std::string>> AnalysisResult::ContextPairs()
    const {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& [name, cfg] : cfgs) {
    for (const prog::CfgNode& node : cfg.nodes()) {
      if (node.call.has_value() && !node.call->is_user_fn) {
        out.insert({name, node.call->callee});
      }
    }
  }
  return out;
}

Analyzer::Analyzer(AnalyzerOptions options) : options_(std::move(options)) {}

analysis::AnalysisCache* Analyzer::cache() const {
  return options_.analysis_cache != nullptr ? options_.analysis_cache
                                            : &cache_;
}

util::Result<AnalysisResult> Analyzer::Analyze(
    const prog::Program& program) const {
  if (!program.finalized()) {
    return util::Status::FailedPrecondition(
        "program must be finalized before analysis");
  }
  AnalysisResult out;
  analysis::AnalysisCache* cache = this->cache();
  const bool incremental = options_.incremental;

  auto t0 = std::chrono::steady_clock::now();
  ADPROM_ASSIGN_OR_RETURN(out.cfgs, prog::BuildAllCfgs(program));
  ADPROM_ASSIGN_OR_RETURN(out.call_graph, prog::CallGraph::Build(program));
  out.cfg_seconds = SecondsSince(t0);

  // Abstract interpretation, then CFG refinement: infeasible branch edges
  // and counted-loop bounds feed the probability forecast below.
  if (options_.absint_refinement) {
    t0 = std::chrono::steady_clock::now();
    analysis::absint::AbsintOptions absint_options;
    absint_options.pool = options_.pool;
    if (incremental) absint_options.summary_cache = &cache->absint;
    ADPROM_ASSIGN_OR_RETURN(
        out.absint,
        analysis::absint::RunAbstractInterpretation(program, absint_options));
    out.cache_stats.absint = out.absint.cache_stats;
    out.refinement = analysis::absint::RefineCfgs(out.absint, &out.cfgs);
    out.absint_seconds = SecondsSince(t0);
  }

  // Data-flow (DDG) labeling. The flow-insensitive ablation is a single
  // global fixpoint with no per-function summaries, so it has nothing to
  // cache.
  t0 = std::chrono::steady_clock::now();
  if (options_.flow_insensitive_taint) {
    ADPROM_ASSIGN_OR_RETURN(
        out.taint,
        analysis::RunTaintAnalysis(program, options_.taint_config));
  } else {
    // Columns are resolved per labeled site by ApplyTaintLabels below.
    analysis::dataflow::IfdsOptions ifds_options;
    ifds_options.config = options_.taint_config;
    ifds_options.column_taint = false;
    ifds_options.feasibility_filter = false;
    ifds_options.witnesses = false;
    ifds_options.pool = options_.pool;
    if (incremental) ifds_options.summary_cache = &cache->taint;
    ADPROM_ASSIGN_OR_RETURN(
        analysis::dataflow::IfdsResult labeled,
        analysis::dataflow::RunIfdsTaint(program, ifds_options));
    out.taint = std::move(labeled.taint);
    out.cache_stats.taint = labeled.cache_stats;
  }
  out.taint_seconds = SecondsSince(t0);

  // Per-function probability forecast. The cache holds the *pre-label*
  // CTM (a pure function of the body and its refinement facts); taint
  // labeling always re-runs, because a labeled site's table/column
  // provenance reaches across functions through the DDG.
  t0 = std::chrono::steady_clock::now();
  const uint64_t forecast_fp = analysis::Hasher()
                                   .Str("forecast")
                                   .Bool(options_.absint_refinement)
                                   .digest();
  for (const auto& [name, cfg] : out.cfgs) {
    uint64_t key = 0;
    analysis::Ctm ctm("");
    bool have_ctm = false;
    if (incremental) {
      const prog::FunctionDef* fn = program.FindFunction(name);
      ADPROM_CHECK_MSG(fn != nullptr, "CFG for unknown function " + name);
      analysis::Hasher h(analysis::HashFunctionBody(*fn));
      const auto facts = out.absint.functions.find(name);
      h.U64(HashAbsintFacts(facts == out.absint.functions.end()
                                ? nullptr
                                : &facts->second));
      key = h.digest();
      std::string payload;
      if (cache->forecast.Lookup(forecast_fp, name, key, &payload,
                                 &out.cache_stats.forecast)) {
        analysis::BinaryReader r(payload);
        ctm = analysis::DecodeCtm(&r);
        ADPROM_CHECK_MSG(r.ok() && r.AtEnd(),
                         "corrupt forecast cache entry for " + name);
        have_ctm = true;
      }
    }
    if (!have_ctm) {
      ADPROM_ASSIGN_OR_RETURN(analysis::FunctionForecast forecast,
                              analysis::ComputeForecast(cfg));
      ctm = std::move(forecast.ctm);
      if (incremental) {
        analysis::BinaryWriter w;
        analysis::EncodeCtm(ctm, &w);
        cache->forecast.Store(forecast_fp, name, key, w.Take());
      }
    }
    if (options_.column_taint) {
      analysis::ApplyTaintLabels(out.taint, program, options_.schemas,
                                 &ctm);
    } else {
      analysis::ApplyTaintLabels(out.taint, program, &ctm);
    }
    out.function_ctms.emplace(name, std::move(ctm));
  }
  out.forecast_seconds = SecondsSince(t0);

  t0 = std::chrono::steady_clock::now();
  ADPROM_ASSIGN_OR_RETURN(
      out.program_ctm,
      analysis::AggregateProgramCtm(out.function_ctms, out.call_graph,
                                    &cache->aggregation,
                                    &out.aggregation_stats));
  out.aggregation_seconds = SecondsSince(t0);
  return std::move(out);
}

}  // namespace adprom::core
