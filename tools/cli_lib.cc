#include "tools/cli_lib.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>

#include "analysis/dataflow/lint.h"
#include "analysis/summary_cache.h"
#include "core/adprom.h"
#include "db/schema.h"
#include "core/detection_engine.h"
#include "prog/program.h"
#include "runtime/frame_codec.h"
#include "runtime/trace_io.h"
#include "service/fleet_node.h"
#include "service/profile_registry.h"
#include "service/session_manager.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace adprom::cli {

namespace {

/// Minimal flag parser: positional args plus --flag value / --flag pairs.
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.contains(name); }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

/// Flags that take no value.
constexpr std::string_view kBoolFlags[] = {
    "--no-labels",         "--signatures", "--flow-insensitive",
    "--no-absint",         "--all",        "--no-simd",
    "--triage",            "--witnesses",  "--no-column-taint",
    "--no-analysis-cache", "--stats",      "--metrics",
    "--tenants"};

/// Every flag that takes a value, given as `--flag value` or
/// `--flag=value`. A flag in neither table is rejected, so a misspelled
/// flag never swallows the argument after it.
constexpr std::string_view kValueFlags[] = {
    "--db",           "--cases",          "--out",
    "--window",       "--seed",           "--threads",
    "--input",        "--profile",        "--trace",
    "--events",       "--format",         "--shards",
    "--queue",        "--policy",         "--profiles-dir",
    "--dump-cfg",     "--dump-pctm",      "--analysis-cache",
    "--dump-witness", "--monitored-sinks"};

bool InTable(std::span<const std::string_view> table, std::string_view flag) {
  return std::find(table.begin(), table.end(), flag) != table.end();
}

util::Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs out;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (InTable(kBoolFlags, name)) {
      if (eq != std::string::npos) {
        return util::Status::InvalidArgument("flag takes no value: " + name);
      }
      out.flags[name] = "1";
      continue;
    }
    if (!InTable(kValueFlags, name)) {
      return util::Status::InvalidArgument("unknown flag: " + name);
    }
    if (eq != std::string::npos) {  // --flag=value
      out.flags[name] = arg.substr(eq + 1);
      continue;
    }
    if (i + 1 >= args.size()) {
      return util::Status::InvalidArgument("flag needs a value: " + arg);
    }
    out.flags[name] = args[++i];
  }
  return std::move(out);
}

/// Parses the integer value of `flag` (`fallback` when absent). Fails with
/// InvalidArgument on anything but a whole decimal number >= min_value:
/// trailing junk, an empty value, or one out of range.
util::Result<size_t> ParseCountFlag(const ParsedArgs& args,
                                    const std::string& flag, long min_value,
                                    size_t fallback) {
  if (!args.Has(flag)) return fallback;
  const std::string value = args.Get(flag);
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE ||
      parsed < min_value) {
    return util::Status::InvalidArgument(
        flag + " must be a number >= " + std::to_string(min_value));
  }
  return static_cast<size_t>(parsed);
}

util::Result<prog::Program> LoadProgram(const std::string& path) {
  ADPROM_ASSIGN_OR_RETURN(std::string source, ReadFileToString(path));
  auto program = prog::ParseProgram(source);
  if (!program.ok()) {
    return util::Status(program.status().code(),
                        path + ": " + program.status().message());
  }
  return program;
}

util::Result<core::DbFactory> LoadDbFactory(const ParsedArgs& args) {
  if (!args.Has("--db")) return core::DbFactory();
  ADPROM_ASSIGN_OR_RETURN(std::string text,
                          ReadFileToString(args.Get("--db")));
  auto statements =
      std::make_shared<std::vector<std::string>>(ParseSqlSeed(text));
  // Validate the seed once up front so errors surface at load time.
  {
    db::Database probe;
    for (const std::string& sql : *statements) {
      auto result = probe.Execute(sql);
      if (!result.ok()) {
        return util::Status(result.status().code(),
                            "seed statement failed: " + sql + " — " +
                                result.status().message());
      }
    }
  }
  return core::DbFactory([statements]() {
    auto database = std::make_unique<db::Database>();
    for (const std::string& sql : *statements) {
      (void)database->Execute(sql);
    }
    return database;
  });
}

util::Result<std::vector<core::TestCase>> LoadCases(
    const std::string& path) {
  ADPROM_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  std::vector<core::TestCase> cases;
  for (const std::string& line : util::Split(text, '\n')) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    cases.push_back({util::SplitWhitespace(trimmed)});
  }
  if (cases.empty()) {
    return util::Status::InvalidArgument(path + ": no test cases");
  }
  return std::move(cases);
}

core::TestCase InputsFlag(const ParsedArgs& args) {
  core::TestCase test_case;
  if (args.Has("--input")) {
    for (std::string& piece : util::Split(args.Get("--input"), ',')) {
      test_case.inputs.push_back(std::move(piece));
    }
  }
  return test_case;
}

/// Applies the scoring-engine flags shared by every command that
/// constructs a DetectionEngine: --no-simd (force the scalar kernels) and
/// --triage (quantized triage tier).
void ApplyScoringFlags(const ParsedArgs& args, core::ProfileOptions* options) {
  if (args.Has("--no-simd")) options->no_simd = true;
  if (args.Has("--triage")) options->triage = true;
}

util::Result<core::ProfileOptions> OptionsFromFlags(const ParsedArgs& args) {
  core::ProfileOptions options;
  ADPROM_ASSIGN_OR_RETURN(
      options.window_length,
      ParseCountFlag(args, "--window", 2, options.window_length));
  if (args.Has("--no-labels")) options.use_dd_labels = false;
  if (args.Has("--signatures")) options.use_query_signatures = true;
  if (args.Has("--flow-insensitive")) options.flow_insensitive_taint = true;
  if (args.Has("--no-absint")) options.absint_refinement = false;
  ApplyScoringFlags(args, &options);
  ADPROM_ASSIGN_OR_RETURN(options.seed,
                          ParseCountFlag(args, "--seed", 0, options.seed));
  ADPROM_ASSIGN_OR_RETURN(const size_t threads,
                          ParseCountFlag(args, "--threads", 0, 0));
  options.train.num_threads = static_cast<int>(threads);
  return std::move(options);
}

/// Resolves --analysis-cache / --no-analysis-cache for `analyze` and
/// `lint`. When a directory is given (and caching is not ablated) loads
/// its image into `cache` — fail-closed: a corrupt or version-mismatched
/// file is reported and the run proceeds cold, never partially warm — and
/// returns true so the caller saves the cache back after the run.
bool LoadCacheDir(const ParsedArgs& args, analysis::AnalysisCache* cache,
                  std::ostream& out) {
  if (!args.Has("--analysis-cache") || args.Has("--no-analysis-cache")) {
    return false;
  }
  const util::Status loaded =
      analysis::LoadAnalysisCache(args.Get("--analysis-cache"), cache);
  if (!loaded.ok()) {
    out << "analysis cache: " << loaded.message() << " — running cold\n";
  }
  return true;
}

void PrintCacheLine(std::ostream& out, const char* pass,
                    const analysis::PassCacheStats& stats) {
  out << "cache " << pass << ": " << stats.hits << " hits, " << stats.misses
      << " misses, " << stats.invalidated << " invalidated\n";
}

// --- Commands ----------------------------------------------------------

util::Status CmdAnalyze(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2) {
    return util::Status::InvalidArgument(
        "usage: adprom analyze <app.mini> [--no-absint] [--dump-cfg=<dir>] "
        "[--db seed.sql] [--no-column-taint] [--analysis-cache=<dir>] "
        "[--no-analysis-cache] [--stats] [--dump-pctm=<path>]");
  }
  ADPROM_ASSIGN_OR_RETURN(prog::Program program,
                          LoadProgram(args.positional[1]));
  core::AnalyzerOptions analyzer_options;
  analyzer_options.flow_insensitive_taint = args.Has("--flow-insensitive");
  analyzer_options.absint_refinement = !args.Has("--no-absint");
  analyzer_options.column_taint = !args.Has("--no-column-taint");
  if (args.Has("--db")) {
    ADPROM_ASSIGN_OR_RETURN(std::string seed_text,
                            ReadFileToString(args.Get("--db")));
    auto catalog = db::BuildSchemaCatalog(ParseSqlSeed(seed_text));
    if (!catalog.ok()) return catalog.status();
    analyzer_options.schemas = std::move(*catalog);
  }
  analyzer_options.incremental = !args.Has("--no-analysis-cache");
  analysis::AnalysisCache disk_cache;
  const bool persist_cache = LoadCacheDir(args, &disk_cache, out);
  if (persist_cache) analyzer_options.analysis_cache = &disk_cache;
  core::Analyzer analyzer(analyzer_options);
  ADPROM_ASSIGN_OR_RETURN(core::AnalysisResult analysis,
                          analyzer.Analyze(program));
  if (persist_cache) {
    ADPROM_RETURN_IF_ERROR(analysis::SaveAnalysisCache(
        disk_cache, args.Get("--analysis-cache")));
  }
  if (args.Has("--dump-pctm")) {
    // Full-precision rendering so CI can byte-compare cold vs warm pCTMs.
    ADPROM_RETURN_IF_ERROR(WriteStringToFile(
        args.Get("--dump-pctm"), analysis.program_ctm.ToString(17)));
  }

  if (args.Has("--dump-cfg")) {
    const std::string dir = args.Get("--dump-cfg");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return util::Status::Internal("cannot create " + dir + ": " +
                                    ec.message());
    }
    for (const auto& [name, cfg] : analysis.cfgs) {
      const std::string path = dir + "/" + name + ".dot";
      ADPROM_RETURN_IF_ERROR(WriteStringToFile(path, cfg.ToDot()));
    }
    out << "CFGs dumped to " << dir << "/ (" << analysis.cfgs.size()
        << " functions)\n";
  }

  out << "functions: " << program.functions().size() << "\n";
  out << "taint labeler: "
      << (analyzer_options.flow_insensitive_taint ? "flow-insensitive"
                                                  : "flow-sensitive")
      << "\n";
  if (analyzer_options.absint_refinement) {
    out << "absint: pruned " << analysis.refinement.pruned_edges
        << " infeasible edges, bounded " << analysis.refinement.bounded_loops
        << " loops\n";
  } else {
    out << "absint: disabled (--no-absint)\n";
  }
  out << "call sites (pCTM states): " << analysis.program_ctm.num_sites()
      << "\n";
  size_t labeled = 0;
  for (size_t i = 0; i < analysis.program_ctm.num_sites(); ++i) {
    const analysis::Site& site = analysis.program_ctm.site(i);
    if (!site.labeled) continue;
    ++labeled;
    out << "  TD output: " << site.observable << " (sources:";
    for (const std::string& table : site.source_tables) out << " " << table;
    out << ")";
    if (!site.source_columns.empty()) {
      out << " [columns:";
      for (const std::string& column : site.source_columns) {
        out << " " << column;
      }
      out << "]";
    }
    out << "\n";
  }
  out << "labeled TD outputs: " << labeled << "\n";
  if (args.Has("--stats")) {
    out << util::StrFormat(
        "pass seconds: cfg %.3f, absint %.3f, taint %.3f, forecast %.3f, "
        "aggregation %.3f\n",
        analysis.cfg_seconds, analysis.absint_seconds,
        analysis.taint_seconds, analysis.forecast_seconds,
        analysis.aggregation_seconds);
    PrintCacheLine(out, "taint", analysis.cache_stats.taint);
    PrintCacheLine(out, "absint", analysis.cache_stats.absint);
    PrintCacheLine(out, "forecast", analysis.cache_stats.forecast);
    out << "cache aggregation: " << analysis.aggregation_stats.cache_hits
        << " hits, " << analysis.aggregation_stats.cache_misses
        << " misses\n";
  }
  const util::Status invariants = analysis.program_ctm.CheckInvariants();
  out << "pCTM invariants: " << (invariants.ok() ? "hold" : "VIOLATED")
      << "\n";
  ADPROM_RETURN_IF_ERROR(invariants);
  return util::Status::Ok();
}

util::Status CmdTrain(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2 || !args.Has("--cases") ||
      !args.Has("--out")) {
    return util::Status::InvalidArgument(
        "usage: adprom train <app.mini> [--db seed.sql] --cases cases.txt"
        " --out app.profile [--window N] [--no-labels] [--signatures]"
        " [--no-absint] [--seed S] [--threads N] [--no-simd] [--stats]");
  }
  ADPROM_ASSIGN_OR_RETURN(prog::Program program,
                          LoadProgram(args.positional[1]));
  ADPROM_ASSIGN_OR_RETURN(core::DbFactory db_factory, LoadDbFactory(args));
  ADPROM_ASSIGN_OR_RETURN(std::vector<core::TestCase> cases,
                          LoadCases(args.Get("--cases")));
  ADPROM_ASSIGN_OR_RETURN(core::ProfileOptions options,
                          OptionsFromFlags(args));

  ADPROM_ASSIGN_OR_RETURN(
      core::AdProm system,
      core::AdProm::Train(program, db_factory, cases, options));
  const std::string serialized = system.profile().Serialize();
  ADPROM_RETURN_IF_ERROR(WriteStringToFile(args.Get("--out"), serialized));
  out << "trained on " << cases.size() << " test cases: "
      << system.profile().num_states << " states, alphabet "
      << system.profile().alphabet.size() << ", threshold "
      << system.profile().threshold << "\n";
  const hmm::TrainStats& stats = system.profile().train_stats;
  out << "training kernel: batch (simd " << stats.simd_level << "), "
      << stats.iterations << " iterations"
      << (stats.converged ? ", converged"
                          : (stats.stopped_by_callback ? ", early-stopped"
                                                       : ""))
      << "\n";
  if (args.Has("--stats")) {
    out << "log-likelihood curve:";
    for (const double ll : stats.log_likelihood_curve) {
      out << " " << util::StrFormat("%.6g", ll);
    }
    out << "\n";
  }
  out << "profile written to " << args.Get("--out") << " ("
      << serialized.size() << " bytes)\n";
  return util::Status::Ok();
}

util::Status CmdTrace(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2 || !args.Has("--out")) {
    return util::Status::InvalidArgument(
        "usage: adprom trace <app.mini> [--db seed.sql] [--input a,b]"
        " --out run.trace");
  }
  ADPROM_ASSIGN_OR_RETURN(prog::Program program,
                          LoadProgram(args.positional[1]));
  ADPROM_ASSIGN_OR_RETURN(core::DbFactory db_factory, LoadDbFactory(args));
  auto cfgs = prog::BuildAllCfgs(program);
  if (!cfgs.ok()) return cfgs.status();
  runtime::ProgramIo io;
  ADPROM_ASSIGN_OR_RETURN(
      runtime::Trace trace,
      core::AdProm::CollectTrace(program, *cfgs, db_factory,
                                 InputsFlag(args), &io));
  ADPROM_RETURN_IF_ERROR(
      WriteStringToFile(args.Get("--out"), runtime::SerializeTrace(trace)));
  out << "collected " << trace.size() << " calls -> " << args.Get("--out")
      << "\n";
  for (const std::string& line : io.screen) out << "  | " << line << "\n";
  return util::Status::Ok();
}

util::Status PrintDetections(const std::vector<core::Detection>& detections,
                             std::ostream& out) {
  size_t alarms = 0;
  for (const core::Detection& d : detections) {
    if (!d.IsAlarm()) continue;
    ++alarms;
    out << "  window " << d.window_start << ": "
        << core::DetectionFlagName(d.flag) << " (score " << d.score << ")";
    if (!d.source_tables.empty()) {
      out << " sources:";
      for (const std::string& table : d.source_tables) out << " " << table;
    }
    if (!d.detail.empty()) out << " — " << d.detail;
    out << "\n";
    if (alarms == 10) {
      out << "  ... further alarms suppressed\n";
      break;
    }
  }
  out << (alarms == 0 ? "no alarms\n" : "") << "windows: "
      << detections.size() << ", alarms: " << alarms << "\n";
  return util::Status::Ok();
}

util::Status CmdScore(const ParsedArgs& args, std::ostream& out) {
  if (!args.Has("--profile") || !args.Has("--trace")) {
    return util::Status::InvalidArgument(
        "usage: adprom score --profile app.profile --trace run.trace"
        " [--no-simd] [--triage]");
  }
  ADPROM_ASSIGN_OR_RETURN(std::string profile_text,
                          ReadFileToString(args.Get("--profile")));
  ADPROM_ASSIGN_OR_RETURN(core::ApplicationProfile profile,
                          core::ApplicationProfile::Deserialize(
                              profile_text));
  ApplyScoringFlags(args, &profile.options);
  ADPROM_ASSIGN_OR_RETURN(std::string trace_text,
                          ReadFileToString(args.Get("--trace")));
  ADPROM_ASSIGN_OR_RETURN(runtime::Trace trace,
                          runtime::ParseTrace(trace_text));
  core::DetectionEngine engine(&profile);
  return PrintDetections(engine.MonitorTrace(trace), out);
}

util::Status CmdMonitor(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2 || !args.Has("--profile")) {
    return util::Status::InvalidArgument(
        "usage: adprom monitor <app.mini> [--db seed.sql]"
        " --profile app.profile [--input a,b] [--no-simd] [--triage]");
  }
  ADPROM_ASSIGN_OR_RETURN(prog::Program program,
                          LoadProgram(args.positional[1]));
  ADPROM_ASSIGN_OR_RETURN(core::DbFactory db_factory, LoadDbFactory(args));
  ADPROM_ASSIGN_OR_RETURN(std::string profile_text,
                          ReadFileToString(args.Get("--profile")));
  ADPROM_ASSIGN_OR_RETURN(core::ApplicationProfile profile,
                          core::ApplicationProfile::Deserialize(
                              profile_text));
  ApplyScoringFlags(args, &profile.options);
  auto cfgs = prog::BuildAllCfgs(program);
  if (!cfgs.ok()) return cfgs.status();
  ADPROM_ASSIGN_OR_RETURN(
      runtime::Trace trace,
      core::AdProm::CollectTrace(program, *cfgs, db_factory,
                                 InputsFlag(args)));
  core::DetectionEngine engine(&profile);
  return PrintDetections(engine.MonitorTrace(trace), out);
}

/// One parsed line of the text feed: either an event bound for a
/// (tenant, session) or an end-of-session marker.
struct FeedLine {
  bool end = false;
  std::string tenant;
  std::string session;
  std::string body;  // the serialized event (event lines only)
};

/// Text feed syntax. Single-profile mode (`tenant_qualified` false):
///   <session>\t<event>        and  !end\t<session>
/// Multi-tenant mode:
///   <tenant>\t<session>\t<event>  and  !end\t<tenant>\t<session>
/// Events for unqualified lines belong to the implicit "default" tenant.
util::Result<FeedLine> ParseFeedLine(const std::string& line,
                                     bool tenant_qualified, size_t line_no) {
  FeedLine parsed;
  parsed.tenant = "default";
  std::string rest = line;
  const size_t first = rest.find('\t');
  if (first == std::string::npos) {
    return util::Status::ParseError(util::StrFormat(
        tenant_qualified
            ? "feed line %zu: expected <tenant>\\t<session>\\t<event>"
            : "feed line %zu: expected <session>\\t<event>",
        line_no));
  }
  std::string head = rest.substr(0, first);
  rest = rest.substr(first + 1);
  if (head == "!end") {
    parsed.end = true;
    if (tenant_qualified) {
      const size_t sep = rest.find('\t');
      if (sep == std::string::npos) {
        return util::Status::ParseError(util::StrFormat(
            "feed line %zu: expected !end\\t<tenant>\\t<session>", line_no));
      }
      parsed.tenant = rest.substr(0, sep);
      parsed.session = rest.substr(sep + 1);
    } else {
      parsed.session = rest;
    }
    return parsed;
  }
  if (tenant_qualified) {
    parsed.tenant = std::move(head);
    const size_t sep = rest.find('\t');
    if (sep == std::string::npos) {
      return util::Status::ParseError(util::StrFormat(
          "feed line %zu: expected <tenant>\\t<session>\\t<event>",
          line_no));
    }
    parsed.session = rest.substr(0, sep);
    parsed.body = rest.substr(sep + 1);
  } else {
    parsed.session = std::move(head);
    parsed.body = std::move(rest);
  }
  return parsed;
}

void PrintFleetMetrics(const service::FleetMetrics& metrics,
                       double elapsed_sec, size_t served,
                       std::ostream& out) {
  const double rate = elapsed_sec > 0.0
                          ? static_cast<double>(served) / elapsed_sec
                          : 0.0;
  out << util::StrFormat(
      "metrics: fleet: %zu events in %.3f s (%.0f events/sec)\n", served,
      elapsed_sec, rate);
  for (size_t i = 0; i < metrics.shards.size(); ++i) {
    const service::ShardMetrics& shard = metrics.shards[i];
    out << util::StrFormat(
        "metrics: shard %zu: submitted %llu scored %llu dropped %llu"
        " verdicts %llu alarms %llu backlog %zu max-backlog %zu"
        " submit-p50 %.1fus submit-p99 %.1fus\n",
        i, static_cast<unsigned long long>(shard.submitted),
        static_cast<unsigned long long>(shard.scored),
        static_cast<unsigned long long>(shard.dropped),
        static_cast<unsigned long long>(shard.verdicts),
        static_cast<unsigned long long>(shard.alarms), shard.queue_depth,
        shard.max_queue_depth, shard.submit_p50_us, shard.submit_p99_us);
  }
  for (const service::TenantMetrics& tenant : metrics.tenants) {
    out << util::StrFormat(
        "metrics: tenant %s: generation %llu submitted %llu scored %llu"
        " dropped %llu verdicts %llu alarms %llu sessions %llu/%llu\n",
        tenant.tenant.c_str(),
        static_cast<unsigned long long>(tenant.generation),
        static_cast<unsigned long long>(tenant.submitted),
        static_cast<unsigned long long>(tenant.scored),
        static_cast<unsigned long long>(tenant.dropped),
        static_cast<unsigned long long>(tenant.verdicts),
        static_cast<unsigned long long>(tenant.alarms),
        static_cast<unsigned long long>(tenant.sessions_closed),
        static_cast<unsigned long long>(tenant.sessions_opened));
  }
}

/// `adprom serve`: the streaming detection fleet node. Sessions shard by
/// a stable hash of (tenant, session key) across --shards independent
/// managers; profiles come from one file (--profile, single implicit
/// "default" tenant) or a directory of <tenant>.profile files
/// (--profiles-dir). Input modes:
///   --trace f1,f2    replay recorded trace files, one session per file
///                    (single-profile mode only);
///   --events file / stdin   live feed, --format binary (default, the
///       length-prefixed ADPF framing of runtime/frame_codec.h) or text
///       (one event per line; see ParseFeedLine). Malformed binary input
///       fails closed: the stream is rejected at the first bad frame.
util::Status CmdServe(const ParsedArgs& args, std::ostream& out) {
  const bool multi_tenant = args.Has("--profiles-dir");
  if (multi_tenant == args.Has("--profile")) {
    return util::Status::InvalidArgument(
        "usage: adprom serve (--profile app.profile | --profiles-dir dir)"
        " [--trace f1,f2 | --events feed] [--format binary|text]"
        " [--shards N] [--threads N] [--queue N]"
        " [--policy block|drop-oldest] [--metrics] [--all]"
        " [--no-simd] [--triage]");
  }

  ADPROM_ASSIGN_OR_RETURN(const size_t requested_threads,
                          ParseCountFlag(args, "--threads", 0, 1));
  const size_t threads =
      util::ResolveThreadCount(static_cast<int>(requested_threads));
  service::FleetOptions fleet_options;
  ADPROM_ASSIGN_OR_RETURN(fleet_options.num_shards,
                          ParseCountFlag(args, "--shards", 1, 1));
  ADPROM_ASSIGN_OR_RETURN(
      fleet_options.session.queue_capacity,
      ParseCountFlag(args, "--queue", 1,
                     fleet_options.session.queue_capacity));
  if (args.Has("--policy")) {
    const std::string policy = args.Get("--policy");
    if (policy == "block") {
      fleet_options.session.overflow =
          service::SessionManagerOptions::OverflowPolicy::kBlock;
    } else if (policy == "drop-oldest") {
      fleet_options.session.overflow =
          service::SessionManagerOptions::OverflowPolicy::kDropOldest;
    } else {
      return util::Status::InvalidArgument(
          "--policy must be block or drop-oldest");
    }
  }
  const std::string format = args.Get("--format", "binary");
  if (format != "binary" && format != "text") {
    return util::Status::InvalidArgument("--format must be binary or text");
  }

  service::ProfileRegistry registry;
  if (multi_tenant) {
    if (args.Has("--trace")) {
      return util::Status::InvalidArgument(
          "--trace replay needs --profile (single-tenant mode)");
    }
    ADPROM_RETURN_IF_ERROR(
        registry.LoadDirectory(args.Get("--profiles-dir")).status());
  } else {
    ADPROM_ASSIGN_OR_RETURN(std::string profile_text,
                            ReadFileToString(args.Get("--profile")));
    ADPROM_ASSIGN_OR_RETURN(core::ApplicationProfile profile,
                            core::ApplicationProfile::Deserialize(
                                profile_text));
    ApplyScoringFlags(args, &profile.options);
    ADPROM_RETURN_IF_ERROR(registry.Install("default", std::move(profile),
                                            args.Get("--profile")));
  }
  // In single-profile mode the sink keeps seeing bare session keys, so
  // the fleet path is output-compatible with the pre-shard service.
  fleet_options.qualify_sink_ids = multi_tenant;

  util::ThreadPool pool(threads);
  service::StreamAlertSink sink(&out, /*alarms_only=*/!args.Has("--all"));
  service::FleetNode fleet(&registry, &sink, &pool, fleet_options);
  size_t submitted = 0;
  const auto start = std::chrono::steady_clock::now();

  if (args.Has("--trace")) {
    for (const std::string& path : util::Split(args.Get("--trace"), ',')) {
      std::ifstream file(path, std::ios::binary);
      if (!file) return util::Status::NotFound("cannot open " + path);
      runtime::TraceReader reader(&file);
      runtime::CallEvent event;
      while (true) {
        ADPROM_ASSIGN_OR_RETURN(bool more, reader.Next(&event));
        if (!more) break;
        ADPROM_RETURN_IF_ERROR(
            fleet.Submit("default", path, std::move(event)));
        ++submitted;
        event = runtime::CallEvent();
      }
    }
  } else {
    std::ifstream events_file;
    std::istream* src = &std::cin;
    if (args.Has("--events") && args.Get("--events") != "-") {
      events_file.open(args.Get("--events"), std::ios::binary);
      if (!events_file) {
        return util::Status::NotFound("cannot open " + args.Get("--events"));
      }
      src = &events_file;
    }
    if (format == "text") {
      std::string line;
      size_t line_no = 0;
      while (std::getline(*src, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        ADPROM_ASSIGN_OR_RETURN(FeedLine feed,
                                ParseFeedLine(line, multi_tenant, line_no));
        if (feed.end) {
          (void)fleet.CloseSession(feed.tenant,
                                   feed.session);  // unknown: no-op
          continue;
        }
        auto event = runtime::ParseTraceLine(feed.body);
        if (!event.ok()) {
          return util::Status::ParseError(util::StrFormat(
              "feed line %zu: %s", line_no,
              event.status().message().c_str()));
        }
        ADPROM_RETURN_IF_ERROR(fleet.Submit(feed.tenant, feed.session,
                                            std::move(event).value()));
        ++submitted;
      }
    } else {
      runtime::FrameDecoder decoder;
      std::vector<char> chunk(64 * 1024);
      while (src->good()) {
        src->read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const std::streamsize got = src->gcount();
        if (got <= 0) break;
        decoder.Feed(
            std::string_view(chunk.data(), static_cast<size_t>(got)));
        while (true) {
          ADPROM_ASSIGN_OR_RETURN(std::optional<runtime::Frame> frame,
                                  decoder.Next());
          if (!frame.has_value()) break;
          const std::string tenant =
              frame->tenant.empty() ? "default" : frame->tenant;
          if (frame->type == runtime::FrameType::kEndSession) {
            (void)fleet.CloseSession(tenant, frame->session);
            continue;
          }
          ADPROM_RETURN_IF_ERROR(fleet.Submit(tenant, frame->session,
                                              std::move(frame->event)));
          ++submitted;
        }
      }
      ADPROM_RETURN_IF_ERROR(decoder.Finish());
    }
  }

  fleet.Drain();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // Snapshot metrics while sessions are still live, then flush them.
  const service::FleetMetrics metrics = fleet.Metrics();
  fleet.CloseAll();
  out << "served " << submitted << " events, dropped "
      << fleet.total_dropped() << "\n";
  if (args.Has("--metrics")) {
    PrintFleetMetrics(metrics, elapsed, submitted, out);
  }
  return util::Status::Ok();
}

/// `adprom frame`: converts a text event feed (the serve --format=text
/// syntax, including !end markers) into the binary ADPF frame stream, so
/// feeds can be replayed through the wire protocol and the two formats
/// compared bit for bit.
util::Status CmdFrame(const ParsedArgs& args, std::ostream& out) {
  if (!args.Has("--events") || !args.Has("--out")) {
    return util::Status::InvalidArgument(
        "usage: adprom frame --events feed.txt --out feed.bin [--tenants]");
  }
  ADPROM_ASSIGN_OR_RETURN(std::string text,
                          ReadFileToString(args.Get("--events")));
  const bool tenant_qualified = args.Has("--tenants");
  std::string encoded;
  size_t events = 0;
  size_t ends = 0;
  size_t line_no = 0;
  for (const std::string& line : util::Split(text, '\n')) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    ADPROM_ASSIGN_OR_RETURN(FeedLine feed,
                            ParseFeedLine(line, tenant_qualified, line_no));
    if (feed.end) {
      runtime::EncodeEndFrame(feed.tenant, feed.session, &encoded);
      ++ends;
      continue;
    }
    auto event = runtime::ParseTraceLine(feed.body);
    if (!event.ok()) {
      return util::Status::ParseError(util::StrFormat(
          "feed line %zu: %s", line_no, event.status().message().c_str()));
    }
    runtime::EncodeEventFrame(feed.tenant, feed.session, *event, &encoded);
    ++events;
  }
  ADPROM_RETURN_IF_ERROR(WriteStringToFile(args.Get("--out"), encoded));
  out << "framed " << events << " events, " << ends << " end markers -> "
      << args.Get("--out") << " (" << encoded.size() << " bytes)\n";
  return util::Status::Ok();
}

/// `adprom info`: inspects a stored profile — dimensions, thresholds, and
/// the transition/emission sparsity the CSR kernels exploit.
util::Status CmdInfo(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2) {
    return util::Status::InvalidArgument(
        "usage: adprom info <app.profile>");
  }
  ADPROM_ASSIGN_OR_RETURN(std::string profile_text,
                          ReadFileToString(args.positional[1]));
  ADPROM_ASSIGN_OR_RETURN(core::ApplicationProfile profile,
                          core::ApplicationProfile::Deserialize(
                              profile_text));

  auto count_nonzeros = [](const util::Matrix& m) {
    size_t nnz = 0;
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) nnz += m.At(r, c) != 0.0;
    }
    return nnz;
  };
  auto density = [](size_t nnz, size_t cells) {
    return cells == 0 ? 1.0
                      : static_cast<double>(nnz) / static_cast<double>(cells);
  };
  const hmm::HmmModel& model = profile.model;
  const size_t n = model.num_states();
  const size_t m = model.num_symbols();
  const size_t a_nnz = count_nonzeros(model.a());
  const size_t b_nnz = count_nonzeros(model.b());

  out << "profile: " << args.positional[1] << "\n";
  out << "serialized size: " << profile_text.size() << " bytes\n";
  out << "window length: " << profile.options.window_length << "\n";
  out << "labels: " << (profile.options.use_dd_labels ? "data-flow"
                                                      : "call-names")
      << ", query signatures: "
      << (profile.options.use_query_signatures ? "on" : "off") << "\n";
  out << "sites: " << profile.num_sites << ", states: " << n
      << ", alphabet: " << profile.alphabet.size() << "\n";
  out << "threshold: " << util::StrFormat("%.6g", profile.threshold) << "\n";
  out << "context pairs: " << profile.context_pairs.size() << "\n";
  out << "labeled TD sources: " << profile.labeled_sources.size() << "\n";
  out << "transition matrix: " << n << "x" << n << ", nnz " << a_nnz << " ("
      << util::StrFormat("%.1f", 100.0 * density(a_nnz, n * n))
      << "% dense)\n";
  out << "emission matrix: " << n << "x" << m << ", nnz " << b_nnz << " ("
      << util::StrFormat("%.1f", 100.0 * density(b_nnz, n * m))
      << "% dense)\n";
  // What the triage tier would prepare for this profile: int16 tables for
  // pi, the stored A nonzeros, and all of Bᵀ, with logs pre-scaled by
  // 2^kScaleBits.
  const hmm::SparseHmm sparse(model);
  const hmm::TriageTables triage(sparse);
  out << "quantized triage tables: " << triage.SizeBytes()
      << " bytes (int16 logs, scale 2^" << hmm::TriageTables::kScaleBits
      << " = " << hmm::TriageTables::kScale << ")\n";
  out << "simd dispatch: " << util::SimdLevelName(util::DetectSimdLevel())
      << "\n";
  return util::Status::Ok();
}

util::Result<size_t> CmdLint(const ParsedArgs& args, std::ostream& out) {
  if (args.positional.size() != 2) {
    return util::Status::InvalidArgument(
        "usage: adprom lint <app.mini> [--db seed.sql] [--witnesses] "
        "[--dump-witness=<dir>] [--format=json] [--no-column-taint] "
        "[--monitored-sinks=a,b] [--analysis-cache=<dir>] "
        "[--no-analysis-cache] [--stats]");
  }
  const std::string& path = args.positional[1];
  ADPROM_ASSIGN_OR_RETURN(prog::Program program, LoadProgram(path));
  analysis::dataflow::LintOptions options;
  if (args.Has("--monitored-sinks")) {
    options.monitored.sink_calls.clear();
    for (const std::string& sink :
         util::Split(args.Get("--monitored-sinks"), ',')) {
      const std::string_view trimmed = util::Trim(sink);
      if (!trimmed.empty()) {
        options.monitored.sink_calls.insert(std::string(trimmed));
      }
    }
  }
  if (args.Has("--db")) {
    ADPROM_ASSIGN_OR_RETURN(std::string text,
                            ReadFileToString(args.Get("--db")));
    auto catalog = db::BuildSchemaCatalog(ParseSqlSeed(text));
    if (!catalog.ok()) return catalog.status();
    options.schemas = std::move(*catalog);
  }
  options.column_taint = !args.Has("--no-column-taint");
  options.witnesses = args.Has("--witnesses") || args.Has("--dump-witness");
  analysis::AnalysisCache disk_cache;
  const bool persist_cache = LoadCacheDir(args, &disk_cache, out);
  if (persist_cache) options.cache = &disk_cache;
  ADPROM_ASSIGN_OR_RETURN(analysis::dataflow::LintReport report,
                          analysis::dataflow::RunLint(program, options));
  if (persist_cache) {
    ADPROM_RETURN_IF_ERROR(analysis::SaveAnalysisCache(
        disk_cache, args.Get("--analysis-cache")));
  }

  const std::string format = args.Get("--format", "text");
  if (format == "json") {
    out << report.FormatJson(path);
  } else if (format == "text") {
    out << report.Format(path);
    if (args.Has("--witnesses")) {
      for (const analysis::dataflow::LeakWitness& w : report.witnesses) {
        out << "\n" << analysis::dataflow::FormatWitness(w);
      }
    }
    if (args.Has("--stats")) {
      // Text mode only: the JSON rendering must stay machine-parseable
      // (and byte-identical across cold and warm runs).
      out << util::StrFormat(
          "pass seconds: structural %.3f, absint %.3f, injection %.3f, "
          "exfil %.3f\n",
          report.stats.structural_seconds, report.stats.absint_seconds,
          report.stats.injection_seconds, report.stats.exfil_seconds);
      PrintCacheLine(out, "absint", report.stats.absint_cache);
      PrintCacheLine(out, "taint", report.stats.taint_cache);
    }
  } else {
    return util::Status::InvalidArgument("unknown --format: " + format);
  }

  if (args.Has("--dump-witness")) {
    const std::string dir = args.Get("--dump-witness");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return util::Status::Internal("cannot create " + dir + ": " +
                                    ec.message());
    }
    for (size_t i = 0; i < report.witnesses.size(); ++i) {
      const std::string witness_path =
          dir + "/witness-" + std::to_string(i) + ".dot";
      ADPROM_RETURN_IF_ERROR(WriteStringToFile(
          witness_path,
          analysis::dataflow::WitnessToDot(report.witnesses[i])));
    }
    if (format != "json") {
      out << "witnesses dumped to " << dir << "/ ("
          << report.witnesses.size() << " paths)\n";
    }
  }
  return report.findings.size();
}

}  // namespace

util::Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::Status WriteStringToFile(const std::string& path,
                               const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::Internal("cannot write " + path);
  out << content;
  return util::Status::Ok();
}

std::vector<std::string> ParseSqlSeed(const std::string& text) {
  std::vector<std::string> statements;
  for (const std::string& line : util::Split(text, '\n')) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    statements.emplace_back(trimmed);
  }
  return statements;
}

util::Status RunCli(const std::vector<std::string>& args,
                    std::ostream& out) {
  if (args.empty()) {
    return util::Status::InvalidArgument(
        "usage: adprom "
        "<analyze|train|trace|score|monitor|serve|frame|lint|info> ...");
  }
  ADPROM_ASSIGN_OR_RETURN(ParsedArgs parsed, ParseArgs(args));
  const std::string& command = parsed.positional.empty()
                                   ? std::string()
                                   : parsed.positional[0];
  if (command == "analyze") return CmdAnalyze(parsed, out);
  if (command == "train") return CmdTrain(parsed, out);
  if (command == "trace") return CmdTrace(parsed, out);
  if (command == "score") return CmdScore(parsed, out);
  if (command == "monitor") return CmdMonitor(parsed, out);
  if (command == "serve") return CmdServe(parsed, out);
  if (command == "frame") return CmdFrame(parsed, out);
  if (command == "info") return CmdInfo(parsed, out);
  if (command == "lint") return CmdLint(parsed, out).status();
  return util::Status::InvalidArgument("unknown command: " + command);
}

int RunCliMain(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  const bool is_lint = !args.empty() && args[0] == "lint";
  if (is_lint) {
    auto parsed = ParseArgs(args);
    const auto findings =
        parsed.ok() ? CmdLint(*parsed, out)
                    : util::Result<size_t>(parsed.status());
    if (!findings.ok()) {
      err << "adprom: " << findings.status().ToString() << "\n";
      return 2;
    }
    return *findings > 0 ? 1 : 0;
  }
  const util::Status status = RunCli(args, out);
  if (!status.ok()) {
    err << "adprom: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace adprom::cli
