#include <gtest/gtest.h>

#include <string>

#include "prog/program.h"
#include "tests/prog/nesting_programs.h"

namespace adprom::prog {
namespace {

TEST(ParserTest, MinimalProgram) {
  auto program = ParseProgram("fn main() {}");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(program->finalized());
  EXPECT_EQ(program->functions().size(), 1u);
  EXPECT_EQ(program->num_call_sites(), 0);
}

TEST(ParserTest, RequiresMain) {
  auto program = ParseProgram("fn helper() {}");
  EXPECT_FALSE(program.ok());
}

TEST(ParserTest, DuplicateFunctionFails) {
  EXPECT_FALSE(ParseProgram("fn main() {} fn main() {}").ok());
}

TEST(ParserTest, VarDeclAndAssign) {
  auto program = ParseProgram(R"(
fn main() {
  var x = 1 + 2 * 3;
  x = x - 1;
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& body = program->FindFunction("main")->body;
  ASSERT_EQ(body.size(), 2u);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kAssign);
  // Precedence: 1 + (2 * 3).
  const Expr& e = *body[0]->expr;
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.bin_op, BinOp::kAdd);
  EXPECT_EQ(e.rhs->bin_op, BinOp::kMul);
}

TEST(ParserTest, UndeclaredVariableFails) {
  EXPECT_FALSE(ParseProgram("fn main() { x = 1; }").ok());
  EXPECT_FALSE(ParseProgram("fn main() { var y = x; }").ok());
}

TEST(ParserTest, ScopingAllowsParams) {
  auto program = ParseProgram(R"(
fn main() { helper(1); }
fn helper(a) { var b = a + 1; print(b); }
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

TEST(ParserTest, BlockScopeDoesNotLeak) {
  // `y` declared in the then-branch is not visible after the if.
  auto program = ParseProgram(R"(
fn main() {
  var x = 1;
  if (x > 0) { var y = 2; print(y); }
  print(y);
}
)");
  EXPECT_FALSE(program.ok());
}

TEST(ParserTest, IfElseChain) {
  auto program = ParseProgram(R"(
fn main() {
  var x = 2;
  if (x == 1) { print("one"); }
  else if (x == 2) { print("two"); }
  else { print("many"); }
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& body = program->FindFunction("main")->body;
  const Stmt& outer_if = *body[1];
  ASSERT_EQ(outer_if.kind, StmtKind::kIf);
  ASSERT_EQ(outer_if.else_body.size(), 1u);
  EXPECT_EQ(outer_if.else_body[0]->kind, StmtKind::kIf);
}

TEST(ParserTest, WhileAndReturn) {
  auto program = ParseProgram(R"(
fn main() { var t = count(3); print(t); }
fn count(n) {
  var i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

TEST(ParserTest, CallSiteIdsAreUniqueAndDense) {
  auto program = ParseProgram(R"(
fn main() {
  print(scan());
  helper();
}
fn helper() { print("x"); }
)");
  ASSERT_TRUE(program.ok());
  // 4 call sites: scan, print, helper, print.
  EXPECT_EQ(program->num_call_sites(), 4);
}

TEST(ParserTest, ArityCheckOnUserCalls) {
  EXPECT_FALSE(ParseProgram(R"(
fn main() { helper(1, 2); }
fn helper(a) { print(a); }
)")
                   .ok());
}

TEST(ParserTest, CloneIsDeepAndIndependent) {
  auto program = ParseProgram(R"(
fn main() { print("original"); }
)");
  ASSERT_TRUE(program.ok());
  Program copy = program->Clone();
  // Mutating the copy must not affect the original.
  FunctionDef* fn = copy.FindMutableFunction("main");
  fn->body[0]->expr->args[0]->str_value = "mutated";
  EXPECT_EQ(program->FindFunction("main")
                ->body[0]
                ->expr->args[0]
                ->str_value,
            "original");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseProgram("fn main( {}").ok());
  EXPECT_FALSE(ParseProgram("fn main() { var = 1; }").ok());
  EXPECT_FALSE(ParseProgram("fn main() { if x { } }").ok());
  EXPECT_FALSE(ParseProgram("fn main() { print(1) }").ok());
  EXPECT_FALSE(ParseProgram("fn main() { while (1) print(); }").ok());
}

TEST(ParserTest, UnaryOperators) {
  auto program = ParseProgram(R"(
fn main() {
  var x = -3;
  var y = !x;
  print(x + y);
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Expr& neg = *program->FindFunction("main")->body[0]->expr;
  EXPECT_EQ(neg.kind, ExprKind::kUnary);
  EXPECT_EQ(neg.un_op, UnOp::kNeg);
}

TEST(ParserTest, DuplicateFunctionErrorCarriesLine) {
  auto program = ParseProgram(R"(
fn helper() {
  print("a");
}
fn main() {
  helper();
}
fn helper() {
  print("b");
}
)");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().ToString().find("line 8"), std::string::npos)
      << program.status().ToString();
  EXPECT_NE(program.status().ToString().find("helper"), std::string::npos);
}

TEST(ParserTest, FunctionDefsRecordTheirLine) {
  auto program = ParseProgram(R"(
fn main() {
  print("x");
}

fn other() {
  print("y");
}
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->FindFunction("main")->line, 2);
  EXPECT_EQ(program->FindFunction("other")->line, 6);
}

void ExpectNestingError(const std::string& source, const std::string& label) {
  auto program = ParseProgram(source);
  ASSERT_FALSE(program.ok()) << label;
  EXPECT_EQ(program.status().code(), util::StatusCode::kParseError) << label;
  const std::string message = program.status().ToString();
  EXPECT_NE(message.find("line "), std::string::npos) << message;
  EXPECT_NE(message.find("nesting deeper than 512 levels"), std::string::npos)
      << message;
}

TEST(ParserTest, DeepNestingFailsClosed) {
  // Inputs that once overflowed the stack: each now stops at the depth
  // limit with a ParseError naming the line.
  ExpectNestingError(testing::NestedParens(5000), "5,000 parentheses");
  ExpectNestingError(testing::NestedIfs(20000), "20,000 nested ifs");
  ExpectNestingError(testing::ElseIfChain(20000), "20,000-branch else-if");
  ExpectNestingError(testing::NotChain(20000), "20,000 prefix !");
  ExpectNestingError(testing::OperatorChain(100000), "100,000-term + chain");
  ExpectNestingError(testing::OperatorChain(100000, "||"),
                     "100,000-term || chain");
  auto parens = ParseProgram(testing::NestedParens(5000));
  ASSERT_FALSE(parens.ok());
  EXPECT_NE(parens.status().ToString().find("line 2:"), std::string::npos)
      << parens.status().ToString();
}

TEST(ParserTest, NestingExactlyAtTheLimitParses) {
  const size_t limit = kMaxNestingDepth;
  struct Case {
    const char* label;
    std::string at_limit;
    std::string one_past;
  };
  const Case cases[] = {
      {"parentheses", testing::NestedParens(limit - 2),
       testing::NestedParens(limit - 1)},
      {"nested ifs", testing::NestedIfs((limit - 2) / 2),
       testing::NestedIfs((limit - 2) / 2 + 1)},
      {"else-if chain", testing::ElseIfChain(limit - 4),
       testing::ElseIfChain(limit - 3)},
      {"prefix !", testing::NotChain(limit - 2), testing::NotChain(limit - 1)},
      {"operator chain", testing::OperatorChain(limit - 1),
       testing::OperatorChain(limit)},
  };
  for (const Case& c : cases) {
    auto program = ParseProgram(c.at_limit);
    EXPECT_TRUE(program.ok()) << c.label << ": "
                              << program.status().ToString();
    ExpectNestingError(c.one_past, c.label);
  }
}

}  // namespace
}  // namespace adprom::prog
