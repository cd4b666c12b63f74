#ifndef ADPROM_ANALYSIS_LABELING_H_
#define ADPROM_ANALYSIS_LABELING_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/ctm.h"
#include "analysis/taint.h"
#include "db/schema.h"
#include "prog/program.h"

namespace adprom::analysis {

/// Builds the observable symbol of a TD-output site, the paper's
/// `printf_Q[bid]` decorated with the owning function so block ids stay
/// unique program-wide (e.g. "print_Qmain_12").
std::string LabeledObservable(const std::string& callee,
                              const std::string& function, int block_id);

/// Appends LabeledObservable(callee, function, block_id) to `out` without
/// building a temporary, so a reused buffer composes it allocation-free.
void AppendLabeledObservable(const std::string& callee,
                             const std::string& function, int block_id,
                             std::string* out);

/// Collects every call expression of the program keyed by call-site id.
std::map<int, const prog::Expr*> IndexCallSites(
    const prog::Program& program);

/// Best-effort static extraction of the DB tables a set of source call
/// sites read: scans string literals inside each source call's argument
/// expressions for FROM/INTO/UPDATE table references. Dynamic provenance
/// (carried on tainted values at run time) supplements this when the query
/// text is not a static literal.
std::vector<std::string> StaticSourceTables(
    const prog::Program& program, const std::set<int>& source_sites);

/// Column-level provenance for a set of source call sites: the sorted
/// union of the `table.column` sets their static query literals can read
/// (`SELECT *` expands through `schemas`). Empty for dynamic query text.
std::vector<std::string> StaticSourceColumns(
    const prog::Program& program, const std::set<int>& source_sites,
    const db::SchemaCatalog& schemas);

/// Applies the taint result to a function's CTM: sites whose call_site_id
/// is a labeled sink get `labeled = true`, the `_Q` observable, and their
/// statically resolvable source tables.
void ApplyTaintLabels(const TaintResult& taint, const prog::Program& program,
                      Ctm* ctm);

/// Same, plus column-level provenance (`Site::source_columns`) resolved
/// through the schema catalog. The table-level labels are identical to
/// the overload above — columns are strictly additive.
void ApplyTaintLabels(const TaintResult& taint, const prog::Program& program,
                      const db::SchemaCatalog& schemas, Ctm* ctm);

}  // namespace adprom::analysis

#endif  // ADPROM_ANALYSIS_LABELING_H_
