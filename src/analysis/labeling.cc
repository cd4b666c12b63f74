#include "analysis/labeling.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>

#include "analysis/dataflow/ifds.h"
#include "util/strings.h"

namespace adprom::analysis {

namespace {

void IndexExpr(const prog::Expr& e, std::map<int, const prog::Expr*>* out) {
  if (e.kind == prog::ExprKind::kCall) {
    (*out)[e.call_site_id] = &e;
  }
  if (e.lhs != nullptr) IndexExpr(*e.lhs, out);
  if (e.rhs != nullptr) IndexExpr(*e.rhs, out);
  for (const auto& arg : e.args) IndexExpr(*arg, out);
}

void IndexBody(const prog::StmtList& body,
               std::map<int, const prog::Expr*>* out) {
  for (const auto& stmt : body) {
    if (stmt->expr != nullptr) IndexExpr(*stmt->expr, out);
    IndexBody(stmt->then_body, out);
    IndexBody(stmt->else_body, out);
  }
}

void CollectStringLiterals(const prog::Expr& e,
                           std::vector<std::string>* out) {
  if (e.kind == prog::ExprKind::kStrLit) out->push_back(e.str_value);
  if (e.lhs != nullptr) CollectStringLiterals(*e.lhs, out);
  if (e.rhs != nullptr) CollectStringLiterals(*e.rhs, out);
  for (const auto& arg : e.args) CollectStringLiterals(*arg, out);
}

/// Finds the identifier following `keyword` (case-insensitive word match)
/// in a SQL fragment, e.g. the table after FROM / INTO / UPDATE.
void ExtractTableAfter(const std::string& text, const std::string& keyword,
                       std::set<std::string>* tables) {
  const std::string lower = util::ToLower(text);
  const std::string needle = util::ToLower(keyword);
  size_t pos = 0;
  while ((pos = lower.find(needle, pos)) != std::string::npos) {
    const bool word_start =
        pos == 0 || !std::isalnum(static_cast<unsigned char>(lower[pos - 1]));
    const size_t after = pos + needle.size();
    const bool word_end =
        after >= lower.size() ||
        !std::isalnum(static_cast<unsigned char>(lower[after]));
    pos = after;
    if (!word_start || !word_end) continue;
    size_t i = after;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    size_t start = i;
    while (i < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[i])) ||
            text[i] == '_'))
      ++i;
    if (i > start) tables->insert(text.substr(start, i - start));
  }
}

}  // namespace

std::string LabeledObservable(const std::string& callee,
                              const std::string& function, int block_id) {
  std::string out;
  AppendLabeledObservable(callee, function, block_id, &out);
  return out;
}

void AppendLabeledObservable(const std::string& callee,
                             const std::string& function, int block_id,
                             std::string* out) {
  // "%s_Q%s_%d": the names go in up to their first NUL, as %s would.
  out->append(callee.c_str());
  out->append("_Q");
  out->append(function.c_str());
  out->push_back('_');
  char digits[16];
  const auto result = std::to_chars(digits, digits + sizeof(digits), block_id);
  out->append(digits, result.ptr);
}

std::map<int, const prog::Expr*> IndexCallSites(
    const prog::Program& program) {
  std::map<int, const prog::Expr*> out;
  for (const prog::FunctionDef& fn : program.functions()) {
    IndexBody(fn.body, &out);
  }
  return out;
}

std::vector<std::string> StaticSourceTables(
    const prog::Program& program, const std::set<int>& source_sites) {
  const std::map<int, const prog::Expr*> index = IndexCallSites(program);
  std::set<std::string> tables;
  for (int site : source_sites) {
    auto it = index.find(site);
    if (it == index.end()) continue;
    std::vector<std::string> literals;
    for (const auto& arg : it->second->args) {
      CollectStringLiterals(*arg, &literals);
    }
    for (const std::string& lit : literals) {
      ExtractTableAfter(lit, "from", &tables);
      ExtractTableAfter(lit, "into", &tables);
      ExtractTableAfter(lit, "update", &tables);
    }
  }
  return std::vector<std::string>(tables.begin(), tables.end());
}

std::vector<std::string> StaticSourceColumns(
    const prog::Program& program, const std::set<int>& source_sites,
    const db::SchemaCatalog& schemas) {
  const std::map<int, const prog::Expr*> index = IndexCallSites(program);
  std::set<std::string> columns;
  for (int site : source_sites) {
    auto it = index.find(site);
    if (it == index.end()) continue;
    for (const std::string& column :
         dataflow::SourceColumnsForCall(*it->second, schemas)) {
      columns.insert(column);
    }
  }
  return std::vector<std::string>(columns.begin(), columns.end());
}

void ApplyTaintLabels(const TaintResult& taint, const prog::Program& program,
                      Ctm* ctm) {
  for (size_t i = 0; i < ctm->num_sites(); ++i) {
    Site& site = ctm->mutable_site(i);
    auto it = taint.labeled_sinks.find(site.call_site_id);
    if (it == taint.labeled_sinks.end()) continue;
    site.labeled = true;
    site.observable =
        LabeledObservable(site.callee, site.function, site.block_id);
    site.source_tables = StaticSourceTables(program, it->second);
  }
}

void ApplyTaintLabels(const TaintResult& taint, const prog::Program& program,
                      const db::SchemaCatalog& schemas, Ctm* ctm) {
  ApplyTaintLabels(taint, program, ctm);
  for (size_t i = 0; i < ctm->num_sites(); ++i) {
    Site& site = ctm->mutable_site(i);
    if (!site.labeled) continue;
    auto it = taint.labeled_sinks.find(site.call_site_id);
    if (it == taint.labeled_sinks.end()) continue;
    site.source_columns = StaticSourceColumns(program, it->second, schemas);
  }
}

}  // namespace adprom::analysis
