// Regression tests of the static vetter (`adprom lint`): the banking
// app's concatenated-query injection is flagged with a line number, and
// every other corpus application comes back clean.

#include "analysis/dataflow/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/corpus.h"
#include "prog/program.h"

namespace adprom::analysis::dataflow {
namespace {

LintReport LintSource(const std::string& source, LintOptions options = {}) {
  auto program = prog::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto report = RunLint(*program, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(*report);
}

LintReport LintApp(const apps::CorpusApp& app) {
  return LintSource(app.source);
}

int LineOfFirst(const std::string& source, const std::string& needle) {
  int line = 1;
  size_t pos = 0;
  const size_t at = source.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  while (pos < at) {
    if (source[pos] == '\n') ++line;
    ++pos;
  }
  return line;
}

TEST(LintCorpusTest, BankingAppInjectionIsFlaggedWithLine) {
  const apps::CorpusApp app = apps::MakeBankingApp();
  const LintReport report = LintApp(app);
  std::vector<LintFinding> injections;
  for (const LintFinding& f : report.findings) {
    if (f.category == "sql-injection") injections.push_back(f);
  }
  ASSERT_EQ(injections.size(), 1u) << report.Format(app.name);
  EXPECT_EQ(injections[0].function, "find_client");
  // The diagnostic points at the db_query call inside find_client.
  EXPECT_EQ(injections[0].line, LineOfFirst(app.source, "db_query(query)"));
  // And nothing else fires on App_b.
  EXPECT_EQ(report.findings.size(), injections.size())
      << report.Format(app.name);
  // The formatted report carries file:line diagnostics.
  const std::string text = report.Format("app_b.mini");
  EXPECT_NE(text.find("app_b.mini:"), std::string::npos);
  EXPECT_NE(text.find("[sql-injection]"), std::string::npos);
}

TEST(LintCorpusTest, CleanCorpusAppsHaveNoFindings) {
  const std::vector<apps::CorpusApp> clean = {
      apps::MakeHospitalApp(),   apps::MakeSupermarketApp(),
      apps::MakeGrepLike(),      apps::MakeGzipLike(),
      apps::MakeSedLike(),       apps::MakeBashLike(),
  };
  for (const apps::CorpusApp& app : clean) {
    const LintReport report = LintApp(app);
    EXPECT_TRUE(report.findings.empty())
        << app.name << ":\n" << report.Format(app.name);
    EXPECT_GT(report.functions_checked, 0u) << app.name;
  }
}

TEST(LintTest, UnreachableStatementIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  print("ok");
  return 0;
  print("never");
}
)");
  ASSERT_EQ(report.findings.size(), 1u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "unreachable");
  EXPECT_EQ(report.findings[0].line, 5);
  EXPECT_EQ(report.findings[0].function, "main");
}

TEST(LintTest, DeadStoreIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  var a = 1;
  a = 2;
  print(a);
}
)");
  ASSERT_EQ(report.findings.size(), 1u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "dead-store");
  EXPECT_EQ(report.findings[0].line, 3);
}

TEST(LintTest, DeadStoreWithSideEffectsIsNotReported) {
  // The stored result is never read, but the RHS performs a call — the
  // statement is kept for its effect and must not be flagged.
  const LintReport report = LintSource(R"(
fn main() {
  var r = db_query("DELETE FROM t WHERE id = 1");
  print("done");
}
)");
  EXPECT_TRUE(report.findings.empty()) << report.Format("t");
}

TEST(LintTest, InjectionRequiresBothConcatBuildAndUserInput) {
  // Concat-built constant query (no user input): clean.
  const LintReport constant_build = LintSource(R"(
fn main() {
  var q = "SELECT * FROM t";
  q = q + " WHERE id = 1";
  var r = db_query(q);
  print(r);
}
)");
  EXPECT_TRUE(constant_build.findings.empty())
      << constant_build.Format("t");

  // User input in a single-expression query (no incremental build): clean
  // for the injection check.
  const LintReport inline_concat = LintSource(R"(
fn main() {
  var needle = scan();
  var r = db_query("SELECT * FROM t WHERE id = " + needle);
  print(r);
}
)");
  for (const LintFinding& f : inline_concat.findings) {
    EXPECT_NE(f.category, "sql-injection") << inline_concat.Format("t");
  }

  // Both together: flagged.
  const LintReport both = LintSource(R"(
fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE name = '";
  q = q + needle;
  q = q + "'";
  var r = db_query(q);
  print(r);
}
)");
  bool flagged = false;
  for (const LintFinding& f : both.findings) {
    if (f.category == "sql-injection") {
      flagged = true;
      EXPECT_EQ(f.line, 7);
      EXPECT_NE(f.message.find("q"), std::string::npos);
    }
  }
  EXPECT_TRUE(flagged) << both.Format("t");
}

TEST(LintTest, SanitizedInputIsNotAnInjection) {
  const LintReport report = LintSource(R"(
fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE id = ";
  q = q + to_int(needle);
  var r = db_query(q);
  print(r);
}
)");
  for (const LintFinding& f : report.findings) {
    EXPECT_NE(f.category, "sql-injection") << report.Format("t");
  }
}

TEST(LintTest, ExfilOutsideMonitoredSinksIsReported) {
  // Narrow the monitored sink set so send_net is an unlabeled channel:
  // DB data flowing into it would escape the monitor's DDG labels.
  LintOptions options;
  options.monitored.sink_calls = {"print"};
  const LintReport report = LintSource(R"(
fn main() {
  var r = db_query("SELECT * FROM accounts");
  send_net("collector", r);
}
)",
                                       options);
  ASSERT_EQ(report.findings.size(), 1u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "unlabeled-exfil");
  EXPECT_EQ(report.findings[0].line, 4);
}

TEST(LintTest, DefaultMonitoredSinksCoverExfilChannels) {
  // Under the default config every output channel is monitored, so the
  // same program is clean.
  const LintReport report = LintSource(R"(
fn main() {
  var r = db_query("SELECT * FROM accounts");
  send_net("collector", r);
}
)");
  EXPECT_TRUE(report.findings.empty()) << report.Format("t");
}

TEST(LintTest, FindingsAreSortedByLine) {
  const LintReport report = LintSource(R"(
fn main() {
  var a = 1;
  a = 2;
  print(a);
  return 0;
  print("never");
}
)");
  ASSERT_EQ(report.findings.size(), 2u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "dead-store");
  EXPECT_EQ(report.findings[1].category, "unreachable");
  EXPECT_LT(report.findings[0].line, report.findings[1].line);
}

TEST(LintTest, InfeasibleBranchIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  var x = 1;
  if (x > 2) { print("never"); } else { print("always"); }
  print("done");
}
)");
  ASSERT_EQ(report.findings.size(), 1u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "infeasible-branch");
  EXPECT_EQ(report.findings[0].line, 4);
  EXPECT_NE(report.findings[0].message.find("always false"),
            std::string::npos);
}

TEST(LintTest, InfeasibleLoopIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  var i = 9;
  while (i < 5) { print(i); i = i + 1; }
  print("done");
}
)");
  bool flagged = false;
  for (const LintFinding& f : report.findings) {
    if (f.category == "infeasible-branch") {
      flagged = true;
      EXPECT_EQ(f.line, 4);
      EXPECT_NE(f.message.find("body never runs"), std::string::npos);
    }
  }
  EXPECT_TRUE(flagged) << report.Format("t");
}

TEST(LintTest, LiteralConditionIsNotFlagged) {
  // `if (1)` / `while (1)` are intentional idioms (the generator emits
  // them); only computed constants are lint findings.
  const LintReport report = LintSource(R"(
fn main() {
  if (1) { print("on"); }
  var stop = 0;
  while (1) {
    print("tick");
    stop = stop + 1;
    if (stop > 2) { return; }
  }
}
)");
  for (const LintFinding& f : report.findings) {
    EXPECT_NE(f.category, "infeasible-branch") << report.Format("t");
  }
}

TEST(LintTest, DivByZeroIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  var d = 0;
  print(10 / d);
}
)");
  ASSERT_EQ(report.findings.size(), 1u) << report.Format("t");
  EXPECT_EQ(report.findings[0].category, "div-by-zero");
  EXPECT_EQ(report.findings[0].line, 4);
}

TEST(LintTest, GuardedDivisionIsNotFlagged) {
  const LintReport report = LintSource(R"(
fn main() {
  var n = to_int(scan());
  if (n != 0) { print(100 / n); }
}
)");
  for (const LintFinding& f : report.findings) {
    EXPECT_NE(f.category, "div-by-zero") << report.Format("t");
  }
}

TEST(LintTest, ConstIndexOutOfBoundsIsReported) {
  const LintReport report = LintSource(R"(
fn main() {
  var r = db_query("SELECT a, b FROM t");
  print(db_getvalue(r, 0, 0));
  print(db_getvalue(r, 0, 4));
}
)");
  std::vector<LintFinding> oob;
  for (const LintFinding& f : report.findings) {
    if (f.category == "const-index-oob") oob.push_back(f);
  }
  ASSERT_EQ(oob.size(), 1u) << report.Format("t");
  EXPECT_EQ(oob[0].line, 5);
}

TEST(LintTest, RequiresFinalizedProgram) {
  prog::Program program;
  auto report = RunLint(program, {});
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace adprom::analysis::dataflow
