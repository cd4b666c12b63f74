#include "analysis/dataflow/lint.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>
#include <utility>

#include "analysis/absint/engine.h"
#include "analysis/dataflow/flow_graph.h"
#include "analysis/dataflow/ifds.h"
#include "analysis/dataflow/liveness.h"
#include "analysis/dataflow/reaching_defs.h"
#include "util/strings.h"

namespace adprom::analysis::dataflow {

namespace {

/// Call sites the exfil check watches: output channels that move data out
/// of the process (as opposed to the interactive screen).
const std::set<std::string>& ExfilCalls() {
  static const std::set<std::string> kCalls = {"send_net", "send_file",
                                               "write_file", "fprint"};
  return kCalls;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void AddStats(const PassCacheStats& in, PassCacheStats* out) {
  out->hits += in.hits;
  out->misses += in.misses;
  out->invalidated += in.invalidated;
}

struct SiteInfo {
  std::string function;
  std::string callee;
  int line = 0;
};

void IndexCallSites(const prog::FunctionDef& fn, const prog::StmtList& body,
                    std::map<int, SiteInfo>* out) {
  for (const auto& stmt : body) {
    if (stmt->expr != nullptr) {
      std::vector<const prog::Expr*> calls;
      prog::CollectCalls(*stmt->expr, &calls);
      for (const prog::Expr* call : calls) {
        (*out)[call->call_site_id] = {fn.name, call->name, call->line};
      }
    }
    IndexCallSites(fn, stmt->then_body, out);
    IndexCallSites(fn, stmt->else_body, out);
  }
}

std::string JoinComma(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// Appends the first feasible witness ending at `sink_site` (if any) to
/// the report and returns its index, -1 otherwise.
int AttachWitness(const IfdsResult& result, int sink_site,
                  LintReport* report) {
  for (const LeakWitness& w : result.witnesses) {
    if (w.sink_site == sink_site && w.feasible) {
      report->witnesses.push_back(w);
      return static_cast<int>(report->witnesses.size()) - 1;
    }
  }
  return -1;
}

void CheckInjection(const prog::Program& program, const LintOptions& options,
                    const std::map<int, SiteInfo>& sites,
                    LintReport* report) {
  IfdsOptions ifds_options;
  ifds_options.config.source_calls = {"scan"};
  ifds_options.config.sink_calls = {"db_query"};
  ifds_options.sanitizer_calls = options.sanitizer_calls;
  ifds_options.column_taint = false;
  ifds_options.feasibility_filter = false;
  ifds_options.witnesses = options.witnesses;
  ifds_options.track_concat_builds = true;
  ifds_options.pool = options.pool;
  if (options.cache != nullptr) {
    ifds_options.summary_cache = &options.cache->taint;
  }
  auto result = RunIfdsTaint(program, ifds_options);
  if (!result.ok()) return;  // RunLint validated the program already.
  AddStats(result->cache_stats, &report->stats.taint_cache);

  for (const auto& [site, builds] : result->sink_concat_builds) {
    // Flag only queries that both carry unsanitized user input and were
    // assembled by incremental concatenation — the Fig. 2 pattern that
    // distinguishes App_b's find_client from parameterized-style
    // single-expression construction.
    if (!result->taint.labeled_sinks.contains(site)) continue;
    const SiteInfo& info = sites.at(site);
    std::string built_at;
    for (int idx : builds) {
      const ConcatBuildSite& build =
          result->concat_sites[static_cast<size_t>(idx)];
      built_at += util::StrFormat("%s'%s' at line %d",
                                  built_at.empty() ? "" : ", ",
                                  build.variable.c_str(), build.line);
    }
    report->findings.push_back(
        {"sql-injection", info.function, info.line,
         util::StrFormat("db_query receives a query concatenated from "
                         "unsanitized user input (built via %s)",
                         built_at.c_str()),
         AttachWitness(*result, site, report)});
  }
}

void CheckExfil(const prog::Program& program, const LintOptions& options,
                const std::map<int, SiteInfo>& sites, LintReport* report) {
  IfdsOptions ifds_options;
  ifds_options.config.source_calls = options.monitored.source_calls;
  ifds_options.config.sink_calls.clear();
  for (const std::string& call : ExfilCalls()) {
    if (!options.monitored.sink_calls.contains(call)) {
      ifds_options.config.sink_calls.insert(call);
    }
  }
  if (ifds_options.config.sink_calls.empty()) return;
  ifds_options.schemas = options.schemas;
  ifds_options.column_taint = options.column_taint;
  ifds_options.witnesses = options.witnesses;
  ifds_options.pool = options.pool;
  if (options.cache != nullptr) {
    ifds_options.summary_cache = &options.cache->taint;
  }
  auto result = RunIfdsTaint(program, ifds_options);
  if (!result.ok()) return;
  AddStats(result->cache_stats, &report->stats.taint_cache);

  // Only feasibility-surviving facts become findings: a flow whose every
  // realizing path is provably contradictory is not a leak.
  for (const auto& [site, sources] : result->taint.labeled_sinks) {
    if (sources.empty()) continue;
    const SiteInfo& info = sites.at(site);
    std::string message = util::StrFormat(
        "DB data flows into '%s', which is outside the monitored sink set "
        "— the monitor would not label this output",
        info.callee.c_str());
    auto columns = result->sink_columns.find(site);
    if (columns != result->sink_columns.end()) {
      message += util::StrFormat(" (reads %s)",
                                 JoinComma(columns->second).c_str());
    }
    report->findings.push_back({"unlabeled-exfil", info.function, info.line,
                                std::move(message),
                                AttachWitness(*result, site, report)});
  }
  if (options.witnesses) {
    // Pruned facts never become findings, but their witnesses explain
    // what was discarded and why (rendered after the referenced ones).
    for (const LeakWitness& w : result->witnesses) {
      if (!w.feasible) report->witnesses.push_back(w);
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

std::string WitnessJson(const LeakWitness& w, const std::string& indent) {
  std::string out = indent + "{\n";
  out += indent + "  \"source\": \"" + JsonEscape(w.source_call) + "\",\n";
  out += indent + "  \"source_site\": " + std::to_string(w.source_site) +
         ",\n";
  out += indent + "  \"sink\": \"" + JsonEscape(w.sink_call) + "\",\n";
  out += indent + "  \"sink_site\": " + std::to_string(w.sink_site) + ",\n";
  out += indent + "  \"feasible\": " + (w.feasible ? "true" : "false") +
         ",\n";
  out += indent + "  \"columns\": " + JsonStringArray(w.columns) + ",\n";
  out += indent + "  \"steps\": [";
  for (size_t i = 0; i < w.steps.size(); ++i) {
    const WitnessStep& s = w.steps[i];
    out += i == 0 ? "\n" : ",\n";
    out += indent + "    {\"function\": \"" + JsonEscape(s.function) +
           "\", \"line\": " + std::to_string(s.line) + ", \"text\": \"" +
           JsonEscape(s.text) + "\"";
    if (s.is_branch) {
      out += std::string(", \"takes\": ") + (s.branch_taken ? "true"
                                                            : "false");
    }
    out += "}";
  }
  if (!w.steps.empty()) out += "\n" + indent + "  ";
  out += "]";
  if (!w.feasible) {
    out += ",\n" + indent +
           "  \"pruned_line\": " + std::to_string(w.pruned_line) + ",\n";
    out += indent + "  \"pruned_condition\": \"" +
           JsonEscape(w.pruned_condition) + "\"\n";
  } else {
    out += "\n";
  }
  return out + indent + "}";
}

}  // namespace

std::string LintReport::Format(const std::string& file_label) const {
  std::string out;
  for (const LintFinding& finding : findings) {
    out += util::StrFormat("%s:%d: [%s] %s (in %s)\n", file_label.c_str(),
                           finding.line, finding.category.c_str(),
                           finding.message.c_str(),
                           finding.function.c_str());
  }
  out += util::StrFormat("%zu finding%s across %zu function%s\n",
                         findings.size(), findings.size() == 1 ? "" : "s",
                         functions_checked, functions_checked == 1 ? "" : "s");
  return out;
}

std::string LintReport::FormatJson(const std::string& file_label) const {
  std::string out = "{\n";
  out += "  \"file\": \"" + JsonEscape(file_label) + "\",\n";
  out += "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"line\": " + std::to_string(f.line) + ",\n";
    out += "      \"category\": \"" + JsonEscape(f.category) + "\",\n";
    out += "      \"function\": \"" + JsonEscape(f.function) + "\",\n";
    out += "      \"message\": \"" + JsonEscape(f.message) + "\"";
    if (f.witness >= 0) {
      out += ",\n      \"witness\": " + std::to_string(f.witness) + "\n";
    } else {
      out += "\n";
    }
    out += "    }";
  }
  if (!findings.empty()) out += "\n  ";
  out += "],\n";
  out += "  \"witnesses\": [";
  for (size_t i = 0; i < witnesses.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += WitnessJson(witnesses[i], "    ");
  }
  if (!witnesses.empty()) out += "\n  ";
  out += "],\n";
  out += "  \"functions_checked\": " + std::to_string(functions_checked) +
         "\n";
  return out + "}\n";
}

util::Result<LintReport> RunLint(const prog::Program& program,
                                 const LintOptions& options) {
  if (!program.finalized()) {
    return util::Status::FailedPrecondition(
        "program must be finalized before linting");
  }
  LintReport report;
  report.functions_checked = program.functions().size();

  std::map<int, SiteInfo> sites;
  for (const prog::FunctionDef& fn : program.functions()) {
    IndexCallSites(fn, fn.body, &sites);
  }

  // Per-function structural checks.
  auto t0 = std::chrono::steady_clock::now();
  for (const prog::FunctionDef& fn : program.functions()) {
    const FlowGraph graph = FlowGraph::Build(fn);
    for (int line : graph.unreachable_lines()) {
      report.findings.push_back({"unreachable", fn.name, line,
                                 "statement can never execute"});
    }
    const ReachingDefsResult defs = ComputeReachingDefs(graph, fn.params);
    for (const auto& use : defs.maybe_uninit) {
      report.findings.push_back(
          {"maybe-uninit", fn.name, use.line,
           util::StrFormat("variable '%s' may be read before it is assigned",
                           use.variable.c_str())});
    }
    const LivenessResult live = ComputeLiveness(graph);
    for (const auto& store : live.dead_stores) {
      if (store.rhs_has_call) continue;  // The statement still has effects.
      report.findings.push_back(
          {"dead-store", fn.name, store.line,
           util::StrFormat("value stored to '%s' is never read",
                           store.variable.c_str())});
    }
  }
  report.stats.structural_seconds = SecondsSince(t0);

  // Interval-powered checks from the abstract interpreter.
  t0 = std::chrono::steady_clock::now();
  absint::AbsintOptions absint_options;
  absint_options.pool = options.pool;
  if (options.cache != nullptr) {
    absint_options.summary_cache = &options.cache->absint;
  }
  auto absint_result =
      absint::RunAbstractInterpretation(program, absint_options);
  if (absint_result.ok()) {
    AddStats(absint_result->cache_stats, &report.stats.absint_cache);
    for (const auto& [fn_name, facts] : absint_result->functions) {
      for (const absint::BranchFact& fact : facts.branches) {
        // Literal conditions (`if (1)`, `while (1)`) are deliberate
        // idioms, not bugs; the CFG refiner still exploits them.
        if (fact.condition_is_literal ||
            fact.verdict == absint::Tri::kUnknown) {
          continue;
        }
        const bool always = fact.verdict == absint::Tri::kTrue;
        const char* what = fact.is_loop
                               ? (always ? "loop condition is always "
                                           "true (loop never exits)"
                                         : "loop condition is always "
                                           "false (body never runs)")
                               : (always ? "condition is always true"
                                         : "condition is always false");
        report.findings.push_back(
            {"infeasible-branch", fn_name, fact.line, what});
      }
      for (const absint::Diagnostic& diag : facts.diagnostics) {
        report.findings.push_back(
            {diag.category, diag.function, diag.line, diag.message});
      }
    }
  }
  report.stats.absint_seconds = SecondsSince(t0);

  // Whole-program taint checks.
  t0 = std::chrono::steady_clock::now();
  CheckInjection(program, options, sites, &report);
  report.stats.injection_seconds = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  CheckExfil(program, options, sites, &report);
  report.stats.exfil_seconds = SecondsSince(t0);

  // Fully deterministic order (the witness index breaks any remaining
  // tie), then drop findings identical in every user-visible field.
  std::sort(report.findings.begin(), report.findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return std::tie(a.line, a.category, a.function, a.message,
                              a.witness) < std::tie(b.line, b.category,
                                                    b.function, b.message,
                                                    b.witness);
            });
  report.findings.erase(
      std::unique(report.findings.begin(), report.findings.end(),
                  [](const LintFinding& a, const LintFinding& b) {
                    return std::tie(a.line, a.category, a.function,
                                    a.message) ==
                           std::tie(b.line, b.category, b.function,
                                    b.message);
                  }),
      report.findings.end());
  return std::move(report);
}

}  // namespace adprom::analysis::dataflow
