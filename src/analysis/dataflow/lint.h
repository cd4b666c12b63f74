#ifndef ADPROM_ANALYSIS_DATAFLOW_LINT_H_
#define ADPROM_ANALYSIS_DATAFLOW_LINT_H_

#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow/ifds.h"
#include "analysis/taint.h"
#include "db/schema.h"
#include "prog/program.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::analysis::dataflow {

/// Static vetting of a MiniApp program before deployment (`adprom lint`).
/// Complements the run-time monitor: the App_b-style concatenated-query
/// injection is caught here before the program ever reaches a database.
/// Every check runs: the structural ones (unreachable statements,
/// maybe-uninitialized reads, dead stores), the interval-powered ones
/// (conditions provably always true/false, possible division by zero,
/// constant indices out of a fixed-size collection's bounds; bare literal
/// conditions such as `while (1)` count as intentional), and two IFDS
/// taint checks (concatenated-query injection and unlabeled exfiltration).
struct LintOptions {
  /// The source/sink sets the deployed monitor labels with; the exfil
  /// check reports taint reaching an output channel *outside* this sink
  /// set (data the monitor would never label).
  TaintConfig monitored = TaintConfig::Default();
  /// Calls treated as neutralizing user input for the injection check.
  std::set<std::string> sanitizer_calls = {"to_int", "to_real", "len",
                                           "is_null"};
  /// CREATE TABLE schemas for `SELECT *` column expansion in the exfil
  /// check (may be empty; `adprom lint --db <seed.sql>` fills it).
  db::SchemaCatalog schemas;
  /// Resolve the `table.column` sets an exfil finding can leak and
  /// mention them in the diagnostic.
  bool column_taint = true;
  /// Attach a source->sink witness path to every taint finding
  /// (`adprom lint --witnesses`).
  bool witnesses = false;
  util::ThreadPool* pool = nullptr;
  /// Optional incremental cache: the absint pass and both IFDS taint
  /// checks store per-function summaries in the `absint` and `taint`
  /// stores, keyed so that a warm rerun only re-solves the transitive
  /// dependents of changed functions. Findings and witnesses are
  /// field-identical with or without it (property-tested). nullptr runs
  /// every pass cold.
  AnalysisCache* cache = nullptr;
};

/// Per-pass wall time and summary-cache counters for one RunLint call
/// (`adprom lint --stats`). The cache counters stay zero when
/// `LintOptions::cache` is null.
struct LintStats {
  double structural_seconds = 0.0;  // unreachable/uninit/dead-store checks
  double absint_seconds = 0.0;
  double injection_seconds = 0.0;  // IFDS injection check
  double exfil_seconds = 0.0;      // IFDS exfil check
  PassCacheStats absint_cache;
  PassCacheStats taint_cache;  // both IFDS taint checks
};

struct LintFinding {
  std::string category;  // sql-injection, maybe-uninit, unreachable, ...
  std::string function;
  int line = 0;
  std::string message;
  /// Index into LintReport::witnesses, or -1 when the finding has no
  /// witness (non-taint findings, or witnesses disabled).
  int witness = -1;
};

struct LintReport {
  /// Sorted by (line, category, function, message, witness); identical
  /// findings are deduplicated.
  std::vector<LintFinding> findings;
  /// Witness paths referenced by `LintFinding::witness` (empty unless
  /// `LintOptions::witnesses`). The exfil check's *pruned* facts are
  /// appended after the referenced ones, so the report can also explain
  /// why a would-be finding was discarded.
  std::vector<LeakWitness> witnesses;
  size_t functions_checked = 0;
  /// Per-pass timing and cache counters (not part of the JSON rendering,
  /// which must stay byte-identical across cold and warm runs).
  LintStats stats;

  /// One diagnostic per line: "<file>:<line>: [category] message (in fn)".
  std::string Format(const std::string& file_label) const;

  /// Machine-readable rendering with a stable field order:
  /// {"file", "findings": [{"line", "category", "function", "message"
  /// (, "witness")}], "witnesses", "functions_checked"}.
  std::string FormatJson(const std::string& file_label) const;
};

/// Runs every check. Requires a finalized program.
util::Result<LintReport> RunLint(const prog::Program& program,
                                 const LintOptions& options = {});

}  // namespace adprom::analysis::dataflow

#endif  // ADPROM_ANALYSIS_DATAFLOW_LINT_H_
