#include "build.h"

#include <fstream>
#include <sstream>

#include "apps/corpus.h"
#include "attack/mutators.h"
#include "common.h"
#include "core/adprom.h"
#include "core/profile_constructor.h"
#include "util/logging.h"
#include "util/strings.h"

namespace adprom::e2e {

namespace {

/// The paper's Table VII training setup, on one thread.
core::ProfileOptions TableSevenOptions() {
  core::ProfileOptions options;
  options.max_training_windows = 400;
  options.train.max_iterations = 12;
  options.train.num_threads = 1;
  return options;
}

apps::CorpusApp MakeApp(const std::string& name) {
  if (name == "App1") return apps::MakeGrepLike();
  if (name == "App2") return apps::MakeGzipLike();
  if (name == "App3") return apps::MakeSedLike();
  if (name == "App4") return apps::MakeBashLike();
  if (name == "App_b") return apps::MakeBankingApp();
  ADPROM_CHECK_MSG(false, "unknown corpus app " + name);
  return {};
}

/// App_b's Attack 5 run (the tautology payload through find_client), as
/// bench_table5_attacks deploys it; empty for every other app.
runtime::Trace AttackTrace(const apps::CorpusApp& app,
                           const prog::Program& program,
                           const core::AnalysisResult& analysis) {
  if (app.name != "App_b") return {};
  auto trace = core::AdProm::CollectTrace(
      program, analysis.cfgs, app.db_factory,
      core::TestCase{{"client", attack::TautologyPayload()}});
  ADPROM_CHECK_MSG(trace.ok(), trace.status().ToString());
  return std::move(trace).value();
}

prog::Program ParseOrDie(const std::string& source, const std::string& what) {
  auto program = prog::ParseProgram(source);
  ADPROM_CHECK_MSG(program.ok(), what + ": " + program.status().ToString());
  return std::move(program).value();
}

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
  return std::move(catalog).value();
}

}  // namespace

Tenant BuildTenant(const std::string& app_name) {
  const apps::CorpusApp app = MakeApp(app_name);
  const prog::Program program = ParseOrDie(app.source, app_name);
  auto system = core::AdProm::Train(program, app.db_factory, app.test_cases,
                                    TableSevenOptions());
  ADPROM_CHECK_MSG(system.ok(), app_name + ": " + system.status().ToString());
  Tenant tenant;
  tenant.name = app_name;
  tenant.profile_text = system->profile().Serialize();
  tenant.traces = system->training_traces();
  tenant.attack_trace = AttackTrace(app, program, system->analysis());
  return tenant;
}

Tenant StagedBuild(const std::string& app_name, BuildStages* stages) {
  const apps::CorpusApp app = MakeApp(app_name);
  const core::ProfileOptions options = TableSevenOptions();
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();

  int64_t t0 = NowNs();
  const prog::Program program = ParseOrDie(app.source, app_name);
  stages->parse_ms += SecondsSince(t0) * 1e3;

  // AdProm::Train's analyzer setup for one thread (no analysis pool).
  core::AnalyzerOptions analyzer_options;
  analyzer_options.flow_insensitive_taint = options.flow_insensitive_taint;
  analyzer_options.absint_refinement = options.absint_refinement;
  t0 = NowNs();
  auto analysis = core::Analyzer(analyzer_options).Analyze(program);
  ADPROM_CHECK_MSG(analysis.ok(), analysis.status().ToString());
  stages->analyze_s += SecondsSince(t0);
  stages->cfg_s += analysis->cfg_seconds;
  stages->absint_s += analysis->absint_seconds;
  stages->taint_s += analysis->taint_seconds;
  stages->forecast_s += analysis->forecast_seconds;
  stages->aggregation_s += analysis->aggregation_seconds;

  t0 = NowNs();
  auto traces = core::AdProm::CollectTraces(program, analysis->cfgs,
                                            app.db_factory, app.test_cases);
  ADPROM_CHECK_MSG(traces.ok(), traces.status().ToString());
  stages->collect_s += SecondsSince(t0);
  for (const runtime::Trace& trace : *traces) {
    stages->trace_events += static_cast<double>(trace.size());
  }

  core::ConstructionTimings timings;
  t0 = NowNs();
  auto profile =
      core::ProfileConstructor(options).Construct(*analysis, *traces,
                                                  &timings);
  ADPROM_CHECK_MSG(profile.ok(), profile.status().ToString());
  stages->construct_s += SecondsSince(t0);
  stages->reduction_s += timings.reduction_seconds;
  stages->init_s += timings.init_seconds;
  stages->baum_welch_s += timings.training_seconds;

  t0 = NowNs();
  Tenant tenant;
  tenant.profile_text = profile->Serialize();
  stages->serialize_ms += SecondsSince(t0) * 1e3;
  stages->wall_s += SecondsSince(start);
  stages->cpu_s += ProcessCpuSeconds() - cpu_start;

  stages->profile_bytes += static_cast<double>(tenant.profile_text.size());
  const util::Matrix& a = profile->model.a();
  stages->states += static_cast<double>(a.rows());
  stages->a_cells += static_cast<double>(a.rows() * a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a.At(i, j) != 0.0) stages->a_nonzeros += 1.0;
    }
  }
  tenant.name = app_name;
  tenant.traces = std::move(traces).value();
  tenant.attack_trace = AttackTrace(app, program, *analysis);
  return tenant;
}

DriftCorpus::DriftCorpus(const std::string& root) {
  const std::string dir = root + "/samples/drift/";
  base_catalog_ = LoadCatalog(dir + "seed.sql");
  v2_catalog_ = LoadCatalog(dir + "seed_v2.sql");
  for (const char* file :
       {"rev0_base.mini", "rev1_body_edit.mini", "rev2_signature.mini",
        "rev3_new_callee.mini", "rev4_schema.mini",
        "rev5_sink_relabel.mini"}) {
    programs_.push_back(ParseOrDie(ReadFileOrDie(dir + file), file));
  }
  AnalyzeBase();
}

const char* DriftCorpus::RevisionKind(size_t i) {
  static const char* const kKinds[kRevisions] = {
      "body_edit", "signature", "new_callee", "schema", "sink_relabel"};
  return kKinds[i];
}

void DriftCorpus::AnalyzeBase() const {
  core::AnalyzerOptions options;
  options.schemas = base_catalog_;
  options.analysis_cache = cache_.get();
  ADPROM_CHECK(core::Analyzer(options).Analyze(programs_[0]).ok());
}

DriftCorpus::Run DriftCorpus::Measure() const {
  Run run;
  for (size_t i = 0; i < kRevisions; ++i) {
    core::AnalyzerOptions options;
    // rev4 is the schema edit: it is analyzed against the v2 catalog.
    options.schemas = i == 3 ? v2_catalog_ : base_catalog_;
    options.analysis_cache = cache_.get();
    const core::Analyzer analyzer(options);
    const int64_t start = NowNs();
    auto result = analyzer.Analyze(programs_[i + 1]);
    run.revision_ms[i] = SecondsSince(start) * 1e3;
    ADPROM_CHECK_MSG(result.ok(), result.status().ToString());
    AnalyzeBase();
    run.total_ms += run.revision_ms[i];
    const analysis::AnalysisCacheStats& s = result->cache_stats;
    run.hits += s.taint.hits + s.absint.hits + s.forecast.hits +
                result->aggregation_stats.cache_hits;
    run.misses += s.taint.misses + s.absint.misses + s.forecast.misses +
                  result->aggregation_stats.cache_misses;
  }
  return run;
}

}  // namespace adprom::e2e
