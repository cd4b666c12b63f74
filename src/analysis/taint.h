#ifndef ADPROM_ANALYSIS_TAINT_H_
#define ADPROM_ANALYSIS_TAINT_H_

#include <map>
#include <set>
#include <string>

#include "prog/program.h"
#include "util/status.h"

namespace adprom::analysis {

/// Which library calls introduce targeted data (TD) and which ones output
/// it. These mirror the paper's input statements (PQexec, mysql_query, the
/// fetch/getvalue family) and output statements (printf, fprintf, write...).
struct TaintConfig {
  std::set<std::string> source_calls;
  std::set<std::string> sink_calls;

  /// Default MiniApp bindings:
  ///   sources: db_query, db_fetch_row, db_getvalue, db_ntuples, row_get
  ///   sinks:   print, print_err, write_file, fprint, send_net, send_file
  static TaintConfig Default();
};

/// The program's data-dependency graph restricted to what AD-PROM needs:
/// for every output call site that may emit TD, the set of DB-input call
/// sites the data can originate from. Also reports which variables carry
/// taint, for diagnostics.
struct TaintResult {
  /// sink call_site_id -> set of source call_site_ids (the DDG edges).
  std::map<int, std::set<int>> labeled_sinks;
  /// function -> tainted variable -> contributing source call_site_ids.
  std::map<std::string, std::map<std::string, std::set<int>>> tainted_vars;

  bool IsLabeledSink(int call_site_id) const {
    return labeled_sinks.contains(call_site_id);
  }
};

/// Flow-insensitive, interprocedural may-taint analysis over a finalized
/// program. Taint enters at source calls, propagates through assignments,
/// expressions, user-function arguments and return values, and is observed
/// at sink calls. Over-approximates the dynamic taint the interpreter
/// tracks exactly (every dynamically labeled event corresponds to a
/// statically labeled site — tested as a property). Implicit flows
/// (through branch conditions) are not tracked, matching the paper.
util::Result<TaintResult> RunTaintAnalysis(const prog::Program& program,
                                           const TaintConfig& config);

}  // namespace adprom::analysis

#endif  // ADPROM_ANALYSIS_TAINT_H_
