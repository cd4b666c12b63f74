#include "db/sql_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "db/database.h"

namespace adprom::db {
namespace {

TEST(SqlParserTest, SelectStar) {
  auto stmt = ParseSql("SELECT * FROM items;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, SqlStatementKind::kSelect);
  EXPECT_EQ(stmt->select.table, "items");
  ASSERT_EQ(stmt->select.items.size(), 1u);
  EXPECT_TRUE(stmt->select.items[0].star);
  EXPECT_EQ(stmt->select.where, nullptr);
}

TEST(SqlParserTest, SelectColumnsWithWhere) {
  auto stmt = ParseSql("SELECT name, age FROM people WHERE age >= 21");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->select.items.size(), 2u);
  EXPECT_EQ(stmt->select.items[0].column, "name");
  EXPECT_EQ(stmt->select.items[1].column, "age");
  ASSERT_NE(stmt->select.where, nullptr);
  EXPECT_EQ(stmt->select.where->kind, SqlExprKind::kCompare);
  EXPECT_EQ(stmt->select.where->cmp, CompareOp::kGe);
}

TEST(SqlParserTest, CountStar) {
  auto stmt = ParseSql("SELECT COUNT(*) FROM employees");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->select.items.size(), 1u);
  EXPECT_EQ(stmt->select.items[0].aggregate, AggregateFn::kCount);
  EXPECT_TRUE(stmt->select.items[0].star);
}

TEST(SqlParserTest, Aggregates) {
  auto stmt = ParseSql("SELECT SUM(total), AVG(total), MIN(x), MAX(x) FROM s");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->select.items.size(), 4u);
  EXPECT_EQ(stmt->select.items[0].aggregate, AggregateFn::kSum);
  EXPECT_EQ(stmt->select.items[1].aggregate, AggregateFn::kAvg);
  EXPECT_EQ(stmt->select.items[2].aggregate, AggregateFn::kMin);
  EXPECT_EQ(stmt->select.items[3].aggregate, AggregateFn::kMax);
}

TEST(SqlParserTest, OrderByAndLimit) {
  auto stmt = ParseSql("SELECT * FROM t ORDER BY id DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.order_by, "id");
  EXPECT_TRUE(stmt->select.order_desc);
  EXPECT_EQ(stmt->select.limit, 5);
}

TEST(SqlParserTest, AndOrPrecedence) {
  // a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3).
  auto stmt = ParseSql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& where = *stmt->select.where;
  ASSERT_EQ(where.kind, SqlExprKind::kLogical);
  EXPECT_EQ(where.logical, LogicalOp::kOr);
  EXPECT_EQ(where.rhs->kind, SqlExprKind::kLogical);
  EXPECT_EQ(where.rhs->logical, LogicalOp::kAnd);
}

TEST(SqlParserTest, LiteralVsLiteralPredicate) {
  // What tautology injection produces: '1'='1'.
  auto stmt = ParseSql("SELECT * FROM clients WHERE id='1' OR '1'='1'");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& where = *stmt->select.where;
  ASSERT_EQ(where.kind, SqlExprKind::kLogical);
  const SqlExpr& tautology = *where.rhs;
  EXPECT_EQ(tautology.kind, SqlExprKind::kCompare);
  EXPECT_EQ(tautology.lhs->kind, SqlExprKind::kLiteral);
  EXPECT_EQ(tautology.rhs->kind, SqlExprKind::kLiteral);
}

TEST(SqlParserTest, InsertPositional) {
  auto stmt = ParseSql("INSERT INTO t VALUES (1, 'x', 2.5, NULL)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, SqlStatementKind::kInsert);
  EXPECT_TRUE(stmt->insert.columns.empty());
  ASSERT_EQ(stmt->insert.values.size(), 4u);
  EXPECT_TRUE(stmt->insert.values[3].is_null());
}

TEST(SqlParserTest, InsertWithColumns) {
  auto stmt = ParseSql("INSERT INTO t (a, b) VALUES (1, 'x')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->insert.columns,
            (std::vector<std::string>{"a", "b"}));
}

TEST(SqlParserTest, Update) {
  auto stmt = ParseSql("UPDATE t SET a = 1, b = 'x' WHERE id = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, SqlStatementKind::kUpdate);
  ASSERT_EQ(stmt->update.assignments.size(), 2u);
  EXPECT_EQ(stmt->update.assignments[0].first, "a");
  ASSERT_NE(stmt->update.where, nullptr);
}

TEST(SqlParserTest, Delete) {
  auto stmt = ParseSql("DELETE FROM t WHERE id = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, SqlStatementKind::kDelete);
  EXPECT_EQ(stmt->del.table, "t");
}

TEST(SqlParserTest, CreateTable) {
  auto stmt = ParseSql("CREATE TABLE t (id INT, name TEXT, score REAL)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, SqlStatementKind::kCreate);
  ASSERT_EQ(stmt->create.columns.size(), 3u);
  EXPECT_EQ(stmt->create.columns[0].second, ValueType::kInt);
  EXPECT_EQ(stmt->create.columns[1].second, ValueType::kText);
  EXPECT_EQ(stmt->create.columns[2].second, ValueType::kReal);
}

TEST(SqlParserTest, NotAndParens) {
  auto stmt = ParseSql("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.where->kind, SqlExprKind::kNot);
}

TEST(SqlParserTest, LikeAndIsNull) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE name LIKE 'A%' AND note IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& where = *stmt->select.where;
  EXPECT_EQ(where.lhs->kind, SqlExprKind::kLike);
  EXPECT_EQ(where.rhs->kind, SqlExprKind::kIsNull);
  EXPECT_TRUE(where.rhs->negated);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT * FORM t").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES 1").ok());
  EXPECT_FALSE(ParseSql("UPDATE t SET = 1").ok());
  EXPECT_FALSE(ParseSql("CREATE TABLE t (id BLOB)").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t; garbage").ok());
  EXPECT_FALSE(ParseSql("").ok());
}

std::string Repeat(const std::string& piece, size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) out += piece;
  return out;
}

/// `parens` parenthesis levels around, and `nots` NOTs before, one
/// comparison in a WHERE clause: level parens + nots + 1.
std::string NestedWhere(size_t parens, size_t nots) {
  return "SELECT * FROM t WHERE " + Repeat("(", parens) + Repeat("NOT ", nots) +
         "1 = 1" + Repeat(")", parens);
}

void ExpectNestingError(const std::string& sql) {
  auto stmt = ParseSql(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), util::StatusCode::kParseError);
  const std::string message = stmt.status().ToString();
  EXPECT_NE(message.find("nested deeper than 256 levels"), std::string::npos)
      << message;
  EXPECT_NE(message.find("near offset"), std::string::npos) << message;
}

TEST(SqlParserTest, DeepNestingFailsClosed) {
  // Inputs that once overflowed the stack; an injected payload can carry
  // either one into a program's query at run time.
  ExpectNestingError(NestedWhere(30000, 0));
  ExpectNestingError(NestedWhere(0, 100000));
  // Operator chains are parsed in a loop, but they build left-deep trees
  // that the evaluator and the destructors then walk recursively.
  const std::string query = "SELECT a FROM t WHERE a = 0";
  ExpectNestingError(query + Repeat(" OR 1 = 1", 100000));
  ExpectNestingError(query + Repeat(" AND 1 = 1", 100000));
}

TEST(SqlParserTest, NestingExactlyAtTheLimitParsesAndRuns) {
  const size_t limit = kMaxSqlNestingDepth;
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  for (const auto& [parens, nots] :
       {std::pair<size_t, size_t>{limit - 1, 0}, {0, limit - 1},
        {limit / 2, limit - 1 - limit / 2}}) {
    const std::string sql = NestedWhere(parens, nots);
    EXPECT_TRUE(ParseSql(sql).ok()) << parens << " parens, " << nots
                                    << " NOTs";
    EXPECT_TRUE(db.Execute(sql).ok()) << parens << " parens, " << nots
                                      << " NOTs";
    ExpectNestingError(NestedWhere(parens + 1, nots));
  }
  // Each OR link is one level below the WHERE expression's.
  std::string chain = "SELECT a FROM t WHERE a = 0";
  chain += Repeat(" OR 1 = 1", limit - 1);
  EXPECT_TRUE(ParseSql(chain).ok());
  EXPECT_TRUE(db.Execute(chain).ok());
  ExpectNestingError(chain + " OR 1 = 1");
}

}  // namespace
}  // namespace adprom::db
