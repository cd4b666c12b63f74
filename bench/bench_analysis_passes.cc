// Wall-time of the static analysis passes over the CA + SIR corpus: the
// legacy flow-insensitive taint pass vs the IFDS engine (as the DDG
// labeler, then with feasibility and witnesses), reaching definitions,
// liveness, the abstract interpreter (constants + intervals) with CFG
// refinement, and the full `adprom lint` vetter. Also reports the
// labeled-sink counts of the two labelers — the delta is the spurious
// labels the strong updates remove — and the edges/loops the refiner
// sharpens per app.
//
// All pass timings are the *minimum* over the repeat count (min-of-N);
// `--smoke` shrinks the corpus and repeats so the binary finishes in
// seconds for CI.
//
// Machine-readable results are written to BENCH_analysis.json at the
// repository root (override with --json <path>).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint/cfg_refiner.h"
#include "analysis/absint/engine.h"
#include "analysis/summary_cache.h"
#include "bench/bench_common.h"
#include "core/analyzer.h"
#include "db/schema.h"
#include "analysis/dataflow/flow_graph.h"
#include "core/adprom.h"
#include "core/detection_engine.h"
#include "analysis/dataflow/ifds.h"
#include "analysis/dataflow/lint.h"
#include "analysis/dataflow/liveness.h"
#include "analysis/dataflow/reaching_defs.h"
#include "analysis/taint.h"
#include "apps/corpus.h"
#include "prog/program.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

#ifndef ADPROM_SOURCE_DIR
#define ADPROM_SOURCE_DIR "."
#endif

namespace adprom::bench {
namespace {

std::string Num(double v) { return util::StrFormat("%.6g", v); }

struct AppResult {
  std::string name;
  size_t functions = 0;
  size_t call_sites = 0;
  double fi_taint_ms = 0.0;
  double reaching_defs_ms = 0.0;
  double liveness_ms = 0.0;
  double absint_ms = 0.0;
  double refine_ms = 0.0;
  double lint_ms = 0.0;
  double ifds_ms = 0.0;
  double witness_ms = 0.0;
  size_t fi_labeled_sinks = 0;
  size_t ifds_labeled_sinks = 0;
  size_t pruned_edges = 0;
  size_t bounded_loops = 0;
  size_t lint_findings = 0;
  size_t ifds_sink_facts = 0;
  size_t ifds_pruned_facts = 0;
  size_t ifds_witnesses = 0;
};

/// Runs `body` `repeats` times and returns the *minimum* wall time in ms
/// (min-of-N; scheduler noise only ever inflates a run).
template <typename Fn>
double TimeMs(size_t repeats, const Fn& body) {
  return MinWallSeconds(repeats, body) * 1e3;
}

AppResult BenchApp(const apps::CorpusApp& app, size_t repeats,
                   util::ThreadPool* pool) {
  auto parsed = prog::ParseProgram(app.source);
  ADPROM_CHECK_MSG(parsed.ok(), app.name + ": " + parsed.status().ToString());
  const prog::Program program = std::move(parsed).value();
  const analysis::TaintConfig config = analysis::TaintConfig::Default();

  AppResult result;
  result.name = app.name;
  result.functions = program.functions().size();

  result.fi_taint_ms = TimeMs(repeats, [&] {
    auto taint = analysis::RunTaintAnalysis(program, config);
    ADPROM_CHECK(taint.ok());
    result.fi_labeled_sinks = taint->labeled_sinks.size();
  });
  result.reaching_defs_ms = TimeMs(repeats, [&] {
    for (const prog::FunctionDef& fn : program.functions()) {
      const auto graph = analysis::dataflow::FlowGraph::Build(fn);
      analysis::dataflow::ComputeReachingDefs(graph, fn.params);
    }
  });
  result.liveness_ms = TimeMs(repeats, [&] {
    for (const prog::FunctionDef& fn : program.functions()) {
      const auto graph = analysis::dataflow::FlowGraph::Build(fn);
      analysis::dataflow::ComputeLiveness(graph);
    }
  });
  analysis::absint::AbsintOptions absint_options;
  absint_options.pool = pool;
  result.absint_ms = TimeMs(repeats, [&] {
    auto absint =
        analysis::absint::RunAbstractInterpretation(program, absint_options);
    ADPROM_CHECK(absint.ok());
  });
  {
    // Refinement is cheap relative to the interpretation, so it is timed
    // on fresh CFGs each repeat (MarkInfeasible/SetLoopBound mutate them).
    auto absint =
        analysis::absint::RunAbstractInterpretation(program, absint_options);
    ADPROM_CHECK(absint.ok());
    result.refine_ms = TimeMs(repeats, [&] {
      std::map<std::string, prog::Cfg> cfgs;
      for (const prog::FunctionDef& fn : program.functions()) {
        auto cfg = prog::BuildCfg(program, fn);
        ADPROM_CHECK(cfg.ok());
        cfgs.emplace(fn.name, std::move(*cfg));
      }
      const auto summary = analysis::absint::RefineCfgs(*absint, &cfgs);
      result.pruned_edges = summary.pruned_edges;
      result.bounded_loops = summary.bounded_loops;
    });
  }
  result.lint_ms = TimeMs(repeats, [&] {
    auto report = analysis::dataflow::RunLint(program);
    ADPROM_CHECK(report.ok());
    result.lint_findings = report->findings.size();
  });

  // The IFDS engine twice: the DDG labeler as AdProm::Train's Analyzer
  // runs it (reachability only, on a fresh summary store), then the full
  // demand-driven tier — conditioned feasibility replays plus witness
  // reconstruction — whose delta is the price of the witnesses.
  analysis::dataflow::IfdsOptions ifds_options;
  ifds_options.config = config;
  ifds_options.pool = pool;
  ifds_options.column_taint = false;
  ifds_options.feasibility_filter = false;
  ifds_options.witnesses = false;
  result.ifds_ms = TimeMs(repeats, [&] {
    analysis::SummaryStore store;
    ifds_options.summary_cache = &store;
    auto ifds = analysis::dataflow::RunIfdsTaint(program, ifds_options);
    ADPROM_CHECK(ifds.ok());
    result.ifds_labeled_sinks = ifds->taint.labeled_sinks.size();
  });
  analysis::dataflow::IfdsOptions witness_options;
  witness_options.config = config;
  witness_options.pool = pool;
  result.witness_ms = TimeMs(repeats, [&] {
    auto ifds = analysis::dataflow::RunIfdsTaint(program, witness_options);
    ADPROM_CHECK(ifds.ok());
    result.ifds_sink_facts = ifds->stats.sink_facts;
    result.ifds_pruned_facts = ifds->stats.pruned_facts;
    result.ifds_witnesses = ifds->witnesses.size();
  });

  size_t sites = 0;
  for (const prog::FunctionDef& fn : program.functions()) {
    const auto graph = analysis::dataflow::FlowGraph::Build(fn);
    for (const auto& node : graph.nodes()) sites += node.expr != nullptr;
  }
  result.call_sites = sites;
  return result;
}

// --- Incremental drift bench ------------------------------------------

/// One revision of the samples/drift corpus, analyzed cold (fresh summary
/// cache) and warm (cache primed on the base revision). The timed portion
/// is the cached passes only — absint, taint, forecast, aggregation — as
/// reported by the analyzer itself; CFG extraction is identical either
/// way and excluded.
struct DriftResult {
  std::string revision;
  std::string kind;
  size_t functions = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double speedup = 0.0;
  size_t warm_hits = 0;
  size_t warm_misses = 0;
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ADPROM_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

db::SchemaCatalog LoadCatalog(const std::string& path) {
  std::vector<std::string> statements;
  for (const std::string& line : util::Split(ReadFileOrDie(path), '\n')) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    statements.emplace_back(trimmed);
  }
  auto catalog = db::BuildSchemaCatalog(statements);
  ADPROM_CHECK_MSG(catalog.ok(), catalog.status().ToString());
  return std::move(*catalog);
}

double CachedPassMs(const core::AnalysisResult& result) {
  return (result.absint_seconds + result.taint_seconds +
          result.forecast_seconds + result.aggregation_seconds) *
         1e3;
}

std::vector<DriftResult> RunDriftBench(size_t repeats) {
  const std::string dir = std::string(ADPROM_SOURCE_DIR) + "/samples/drift/";
  const db::SchemaCatalog base_catalog = LoadCatalog(dir + "seed.sql");
  const db::SchemaCatalog v2_catalog = LoadCatalog(dir + "seed_v2.sql");
  struct Revision {
    const char* file;
    const char* kind;
    const db::SchemaCatalog* catalog;
  };
  const Revision revisions[] = {
      {"rev0_base.mini", "none", &base_catalog},
      {"rev1_body_edit.mini", "body_edit", &base_catalog},
      {"rev2_signature.mini", "signature", &base_catalog},
      {"rev3_new_callee.mini", "new_callee", &base_catalog},
      {"rev4_schema.mini", "schema", &v2_catalog},
      {"rev5_sink_relabel.mini", "sink_relabel", &base_catalog},
  };
  auto base_program =
      prog::ParseProgram(ReadFileOrDie(dir + "rev0_base.mini"));
  ADPROM_CHECK(base_program.ok());

  std::vector<DriftResult> results;
  for (const Revision& rev : revisions) {
    auto program = prog::ParseProgram(ReadFileOrDie(dir + rev.file));
    ADPROM_CHECK(program.ok());
    DriftResult r;
    r.revision = rev.file;
    r.kind = rev.kind;
    r.functions = program->functions().size();

    double cold_best = 0.0;
    double warm_best = 0.0;
    for (size_t rep = 0; rep < repeats; ++rep) {
      {
        // Cold: a fresh cache sees only the revision (misses everywhere,
        // so this also pays the Store overhead an uncached run avoids).
        analysis::AnalysisCache cache;
        core::AnalyzerOptions options;
        options.schemas = *rev.catalog;
        options.analysis_cache = &cache;
        auto cold = core::Analyzer(options).Analyze(*program);
        ADPROM_CHECK(cold.ok());
        const double ms = CachedPassMs(*cold);
        if (rep == 0 || ms < cold_best) cold_best = ms;
      }
      {
        // Warm: prime the cache on the base revision (base catalog),
        // then analyze the edit. Priming is outside the timed portion.
        analysis::AnalysisCache cache;
        core::AnalyzerOptions prime_options;
        prime_options.schemas = base_catalog;
        prime_options.analysis_cache = &cache;
        ADPROM_CHECK(
            core::Analyzer(prime_options).Analyze(*base_program).ok());
        core::AnalyzerOptions options;
        options.schemas = *rev.catalog;
        options.analysis_cache = &cache;
        auto warm = core::Analyzer(options).Analyze(*program);
        ADPROM_CHECK(warm.ok());
        const double ms = CachedPassMs(*warm);
        if (rep == 0 || ms < warm_best) warm_best = ms;
        if (rep == 0) {
          const auto& s = warm->cache_stats;
          r.warm_hits = s.taint.hits + s.absint.hits + s.forecast.hits +
                        warm->aggregation_stats.cache_hits;
          r.warm_misses = s.taint.misses + s.absint.misses +
                          s.forecast.misses +
                          warm->aggregation_stats.cache_misses;
        }
      }
    }
    r.cold_ms = cold_best;
    r.warm_ms = warm_best;
    r.speedup = warm_best > 0.0 ? cold_best / warm_best : 0.0;
    results.push_back(std::move(r));
  }
  return results;
}

/// The forecast ablation scores the *statically seeded* HMM (Baum-Welch
/// disabled) on the absint demo's benign trace; the refined − uniform
/// delta is the sharpening the pruned edges and the loop bound buy before
/// any dynamic training can wash the seed out.
struct ForecastAblation {
  double refined_mean_score = 0.0;
  double uniform_mean_score = 0.0;
};

core::DbFactory DemoDb() {
  return [] {
    auto db = std::make_unique<db::Database>();
    db->Execute("CREATE TABLE jobs (id INT, status TEXT)");
    db->Execute("INSERT INTO jobs VALUES (0, 'queued')");
    db->Execute("INSERT INTO jobs VALUES (1, 'running')");
    db->Execute("INSERT INTO jobs VALUES (2, 'done')");
    return db;
  };
}

double MeanSeededWindowScore(const prog::Program& program, bool refined) {
  core::ProfileOptions options;
  options.window_length = 5;  // the demo trace is 13 calls long
  options.absint_refinement = refined;
  options.train.max_iterations = 0;  // score the static seed itself
  const std::vector<core::TestCase> cases(4);
  auto system = core::AdProm::Train(program, DemoDb(), cases, options);
  ADPROM_CHECK_MSG(system.ok(), system.status().ToString());

  auto cfgs = prog::BuildAllCfgs(program);
  ADPROM_CHECK(cfgs.ok());
  auto trace =
      core::AdProm::CollectTrace(program, *cfgs, DemoDb(), core::TestCase{});
  ADPROM_CHECK(trace.ok());

  const core::DetectionEngine engine(&system->profile());
  const std::vector<core::Detection> detections =
      engine.MonitorTrace(*trace);
  ADPROM_CHECK(!detections.empty());
  double sum = 0.0;
  for (const core::Detection& d : detections) sum += d.score;
  return sum / static_cast<double>(detections.size());
}

ForecastAblation RunForecastAblation() {
  std::ifstream demo_file(std::string(ADPROM_SOURCE_DIR) +
                          "/samples/absint/demo.mini");
  std::stringstream demo_source;
  demo_source << demo_file.rdbuf();
  auto program = prog::ParseProgram(demo_source.str());
  ADPROM_CHECK_MSG(program.ok(), program.status().ToString());

  ForecastAblation ablation;
  ablation.refined_mean_score = MeanSeededWindowScore(*program, true);
  ablation.uniform_mean_score = MeanSeededWindowScore(*program, false);
  std::printf(
      "\nForecast ablation (samples/absint/demo.mini, statically seeded"
      " HMM,\nmean per-symbol window log-likelihood of the benign trace):\n"
      "  refined forecast  %.4f\n  uniform forecast  %.4f\n",
      ablation.refined_mean_score, ablation.uniform_mean_score);
  return ablation;
}

void WriteJson(const std::vector<AppResult>& results,
               const std::vector<DriftResult>& drift,
               const ForecastAblation& ablation, size_t repeats,
               const std::string& json_path) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"bench\": \"bench_analysis_passes\",\n";
  json << "  " << JsonProvenance(repeats) << ",\n";
  json << "  \"hardware_concurrency\": "
       << util::ThreadPool::DefaultConcurrency() << ",\n";
  json << "  \"apps\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const AppResult& r = results[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"functions\": " << r.functions
         << ", \"fi_taint_ms\": " << Num(r.fi_taint_ms)
         << ", \"reaching_defs_ms\": " << Num(r.reaching_defs_ms)
         << ", \"liveness_ms\": " << Num(r.liveness_ms)
         << ", \"absint_ms\": " << Num(r.absint_ms)
         << ", \"refine_ms\": " << Num(r.refine_ms)
         << ", \"lint_ms\": " << Num(r.lint_ms)
         << ", \"ifds_ms\": " << Num(r.ifds_ms)
         << ", \"witness_ms\": " << Num(r.witness_ms)
         << ", \"fi_labeled_sinks\": " << r.fi_labeled_sinks
         << ", \"ifds_labeled_sinks\": " << r.ifds_labeled_sinks
         << ", \"pruned_edges\": " << r.pruned_edges
         << ", \"bounded_loops\": " << r.bounded_loops
         << ", \"lint_findings\": " << r.lint_findings
         << ", \"ifds_sink_facts\": " << r.ifds_sink_facts
         << ", \"ifds_pruned_facts\": " << r.ifds_pruned_facts
         << ", \"ifds_witnesses\": " << r.ifds_witnesses << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"drift\": {\"corpus\": \"samples/drift\", \"revisions\": [\n";
  for (size_t i = 0; i < drift.size(); ++i) {
    const DriftResult& r = drift[i];
    json << "    {\"revision\": \"" << r.revision << "\""
         << ", \"kind\": \"" << r.kind << "\""
         << ", \"functions\": " << r.functions
         << ", \"cold_ms\": " << Num(r.cold_ms)
         << ", \"warm_ms\": " << Num(r.warm_ms)
         << ", \"speedup\": " << Num(r.speedup)
         << ", \"warm_hits\": " << r.warm_hits
         << ", \"warm_misses\": " << r.warm_misses << "}"
         << (i + 1 < drift.size() ? "," : "") << "\n";
  }
  json << "  ]},\n";
  json << "  \"forecast_ablation\": {\"app\": \"samples/absint/demo.mini\""
       << ", \"refined_mean_score\": " << Num(ablation.refined_mean_score)
       << ", \"uniform_mean_score\": " << Num(ablation.uniform_mean_score)
       << "}\n";
  json << "}\n";

  std::ofstream out(json_path, std::ios::binary);
  if (out) {
    out << json.str();
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\nWARNING: cannot write %s\n", json_path.c_str());
  }
}

void Run(bool smoke, const std::string& json_path) {
  std::printf("\n=== Static analysis pass wall time (min ms/run%s) ===\n\n",
              smoke ? ", smoke" : "");
  const size_t repeats = smoke ? 2 : 10;
  util::ThreadPool pool(util::ThreadPool::DefaultConcurrency());
  const std::vector<apps::CorpusApp> corpus =
      smoke ? std::vector<apps::CorpusApp>{apps::MakeHospitalApp(),
                                           apps::MakeGrepLike(12, 1),
                                           apps::MakeBashLike(25, 8, 4)}
            : std::vector<apps::CorpusApp>{
                  apps::MakeHospitalApp(), apps::MakeBankingApp(),
                  apps::MakeSupermarketApp(), apps::MakeGrepLike(),
                  apps::MakeGzipLike(),    apps::MakeSedLike(),
                  apps::MakeBashLike(),
              };

  std::vector<AppResult> results;
  util::TablePrinter table({"app", "fns", "FI taint", "reach-defs",
                            "liveness", "absint", "refine", "lint", "ifds",
                            "witness", "FI/IFDS sinks", "pruned/bounded",
                            "findings", "facts-pruned"});
  for (const apps::CorpusApp& app : corpus) {
    AppResult r = BenchApp(app, repeats, &pool);
    table.AddRow({r.name, std::to_string(r.functions), Num(r.fi_taint_ms),
                  Num(r.reaching_defs_ms), Num(r.liveness_ms),
                  Num(r.absint_ms), Num(r.refine_ms), Num(r.lint_ms),
                  Num(r.ifds_ms), Num(r.witness_ms),
                  std::to_string(r.fi_labeled_sinks) + "/" +
                      std::to_string(r.ifds_labeled_sinks),
                  std::to_string(r.pruned_edges) + "/" +
                      std::to_string(r.bounded_loops),
                  std::to_string(r.lint_findings),
                  std::to_string(r.ifds_sink_facts) + "-" +
                      std::to_string(r.ifds_pruned_facts)});
    results.push_back(std::move(r));
  }
  table.Print();

  std::printf(
      "\n=== Incremental drift (samples/drift, cold vs warm cached-pass"
      " ms) ===\n\n");
  const std::vector<DriftResult> drift = RunDriftBench(repeats);
  util::TablePrinter drift_table({"revision", "kind", "fns", "cold",
                                  "warm", "speedup", "hits/misses"});
  for (const DriftResult& r : drift) {
    drift_table.AddRow({r.revision, r.kind, std::to_string(r.functions),
                        Num(r.cold_ms), Num(r.warm_ms),
                        util::StrFormat("%.1fx", r.speedup),
                        std::to_string(r.warm_hits) + "/" +
                            std::to_string(r.warm_misses)});
  }
  drift_table.Print();

  const ForecastAblation ablation = RunForecastAblation();
  WriteJson(results, drift, ablation, repeats, json_path);
}

}  // namespace
}  // namespace adprom::bench

int main(int argc, char** argv) {
  std::string json_path =
      std::string(ADPROM_SOURCE_DIR) + "/BENCH_analysis.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    }
  }
  adprom::bench::Run(smoke, json_path);
  return 0;
}
