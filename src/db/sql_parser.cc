#include "db/sql_parser.h"

#include <algorithm>
#include <cstdlib>

#include "db/sql_token.h"
#include "util/nesting_guard.h"
#include "util/strings.h"

namespace adprom::db {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  util::Result<SqlStatement> ParseStatement() {
    SqlStatement stmt;
    if (MatchKeyword("SELECT")) {
      stmt.kind = SqlStatementKind::kSelect;
      ADPROM_RETURN_IF_ERROR(ParseSelect(&stmt.select));
    } else if (MatchKeyword("INSERT")) {
      stmt.kind = SqlStatementKind::kInsert;
      ADPROM_RETURN_IF_ERROR(ParseInsert(&stmt.insert));
    } else if (MatchKeyword("UPDATE")) {
      stmt.kind = SqlStatementKind::kUpdate;
      ADPROM_RETURN_IF_ERROR(ParseUpdate(&stmt.update));
    } else if (MatchKeyword("DELETE")) {
      stmt.kind = SqlStatementKind::kDelete;
      ADPROM_RETURN_IF_ERROR(ParseDelete(&stmt.del));
    } else if (MatchKeyword("CREATE")) {
      stmt.kind = SqlStatementKind::kCreate;
      ADPROM_RETURN_IF_ERROR(ParseCreate(&stmt.create));
    } else {
      return Error("expected SELECT/INSERT/UPDATE/DELETE/CREATE");
    }
    Match(SqlTokenType::kSemicolon);
    if (Peek().type != SqlTokenType::kEnd)
      return Error("trailing tokens after statement");
    return std::move(stmt);
  }

 private:
  const SqlToken& Peek() const { return tokens_[pos_]; }
  const SqlToken& Advance() { return tokens_[pos_++]; }

  bool Match(SqlTokenType type) {
    if (Peek().type == type) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchKeyword(const char* kw) {
    if (Peek().type == SqlTokenType::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekKeyword(const char* kw) const {
    return Peek().type == SqlTokenType::kKeyword && Peek().text == kw;
  }

  util::Status Error(const std::string& what) const {
    return util::Status::ParseError(util::StrFormat(
        "%s near offset %zu (token '%s')", what.c_str(), Peek().offset,
        Peek().text.c_str()));
  }

  util::Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) return Error(std::string("expected ") + kw);
    return util::Status::Ok();
  }

  util::Result<std::string> ExpectIdentifier() {
    if (Peek().type != SqlTokenType::kIdentifier)
      return Error("expected identifier");
    return Advance().text;
  }

  util::Result<Value> ExpectLiteral() {
    const SqlToken& t = Peek();
    switch (t.type) {
      case SqlTokenType::kIntLiteral:
        Advance();
        return Value::Int(std::strtoll(t.text.c_str(), nullptr, 10));
      case SqlTokenType::kRealLiteral:
        Advance();
        return Value::Real(std::strtod(t.text.c_str(), nullptr));
      case SqlTokenType::kStringLiteral:
        Advance();
        return Value::Text(t.text);
      case SqlTokenType::kKeyword:
        if (t.text == "NULL") {
          Advance();
          return Value::Null();
        }
        break;
      default:
        break;
    }
    return Error("expected literal");
  }

  // --- SELECT ---------------------------------------------------------

  util::Status ParseSelect(SelectStatement* out) {
    ADPROM_RETURN_IF_ERROR(ParseSelectItems(&out->items));
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    ADPROM_ASSIGN_OR_RETURN(out->table, ExpectIdentifier());
    if (MatchKeyword("WHERE")) {
      ADPROM_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    if (MatchKeyword("ORDER")) {
      ADPROM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      ADPROM_ASSIGN_OR_RETURN(out->order_by, ExpectIdentifier());
      if (MatchKeyword("DESC")) {
        out->order_desc = true;
      } else {
        MatchKeyword("ASC");
      }
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != SqlTokenType::kIntLiteral)
        return Error("expected integer after LIMIT");
      out->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
    }
    return util::Status::Ok();
  }

  util::Status ParseSelectItems(std::vector<SelectItem>* items) {
    do {
      SelectItem item;
      if (Match(SqlTokenType::kStar)) {
        item.star = true;
      } else if (Peek().type == SqlTokenType::kKeyword &&
                 AggregateFromKeyword(Peek().text) != AggregateFn::kNone) {
        item.aggregate = AggregateFromKeyword(Advance().text);
        if (!Match(SqlTokenType::kLParen))
          return Error("expected '(' after aggregate");
        if (Match(SqlTokenType::kStar)) {
          item.star = true;
          if (item.aggregate != AggregateFn::kCount)
            return Error("only COUNT(*) supports '*'");
        } else {
          ADPROM_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
        }
        if (!Match(SqlTokenType::kRParen))
          return Error("expected ')' after aggregate");
      } else {
        ADPROM_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
      }
      items->push_back(std::move(item));
    } while (Match(SqlTokenType::kComma));
    return util::Status::Ok();
  }

  static AggregateFn AggregateFromKeyword(const std::string& kw) {
    if (kw == "COUNT") return AggregateFn::kCount;
    if (kw == "SUM") return AggregateFn::kSum;
    if (kw == "AVG") return AggregateFn::kAvg;
    if (kw == "MIN") return AggregateFn::kMin;
    if (kw == "MAX") return AggregateFn::kMax;
    return AggregateFn::kNone;
  }

  // --- INSERT ---------------------------------------------------------

  util::Status ParseInsert(InsertStatement* out) {
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    ADPROM_ASSIGN_OR_RETURN(out->table, ExpectIdentifier());
    if (Match(SqlTokenType::kLParen)) {
      do {
        ADPROM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        out->columns.push_back(std::move(col));
      } while (Match(SqlTokenType::kComma));
      if (!Match(SqlTokenType::kRParen))
        return Error("expected ')' after column list");
    }
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    if (!Match(SqlTokenType::kLParen))
      return Error("expected '(' after VALUES");
    do {
      ADPROM_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
      out->values.push_back(std::move(v));
    } while (Match(SqlTokenType::kComma));
    if (!Match(SqlTokenType::kRParen))
      return Error("expected ')' after value list");
    return util::Status::Ok();
  }

  // --- UPDATE ---------------------------------------------------------

  util::Status ParseUpdate(UpdateStatement* out) {
    ADPROM_ASSIGN_OR_RETURN(out->table, ExpectIdentifier());
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("SET"));
    do {
      ADPROM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      if (!(Peek().type == SqlTokenType::kOperator && Peek().text == "="))
        return Error("expected '=' in SET clause");
      Advance();
      ADPROM_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
      out->assignments.emplace_back(std::move(col), std::move(v));
    } while (Match(SqlTokenType::kComma));
    if (MatchKeyword("WHERE")) {
      ADPROM_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    return util::Status::Ok();
  }

  // --- DELETE ---------------------------------------------------------

  util::Status ParseDelete(DeleteStatement* out) {
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    ADPROM_ASSIGN_OR_RETURN(out->table, ExpectIdentifier());
    if (MatchKeyword("WHERE")) {
      ADPROM_ASSIGN_OR_RETURN(out->where, ParseExpr());
    }
    return util::Status::Ok();
  }

  // --- CREATE ---------------------------------------------------------

  util::Status ParseCreate(CreateTableStatement* out) {
    ADPROM_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    ADPROM_ASSIGN_OR_RETURN(out->table, ExpectIdentifier());
    if (!Match(SqlTokenType::kLParen))
      return Error("expected '(' after table name");
    do {
      ADPROM_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      ValueType type;
      if (MatchKeyword("INT")) {
        type = ValueType::kInt;
      } else if (MatchKeyword("REAL")) {
        type = ValueType::kReal;
      } else if (MatchKeyword("TEXT")) {
        type = ValueType::kText;
      } else {
        return Error("expected column type INT/REAL/TEXT");
      }
      out->columns.emplace_back(std::move(col), type);
    } while (Match(SqlTokenType::kComma));
    if (!Match(SqlTokenType::kRParen))
      return Error("expected ')' after column definitions");
    return util::Status::Ok();
  }

  // --- Expressions ----------------------------------------------------

  /// Fails once the nesting opened so far, plus `below` further levels,
  /// exceeds kMaxSqlNestingDepth.
  util::Status CheckDepth(size_t below = 0) const {
    if (depth_ + below <= kMaxSqlNestingDepth) return util::Status::Ok();
    return Error(util::StrFormat("expression nested deeper than %zu levels",
                                 kMaxSqlNestingDepth));
  }

  util::Result<std::unique_ptr<SqlExpr>> ParseExpr() {
    const util::NestingGuard guard(&depth_);
    ADPROM_RETURN_IF_ERROR(CheckDepth());
    return ParseOr();
  }

  /// Charges one AND/OR link joining a left operand of `*height` levels
  /// with the right operand just parsed (`height_`). The chains are built
  /// in a loop into left-deep trees, so the recursion never sees their
  /// depth: each link counts as one more nesting level here.
  util::Status AddLink(size_t* height) const {
    *height = 1 + std::max(*height, height_);
    return CheckDepth(*height - 1);
  }

  util::Result<std::unique_ptr<SqlExpr>> ParseOr() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseAnd());
    size_t height = height_;
    while (MatchKeyword("OR")) {
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseAnd());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = SqlExpr::Logical(LogicalOp::kOr, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return std::move(lhs);
  }

  util::Result<std::unique_ptr<SqlExpr>> ParseAnd() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseUnary());
    size_t height = height_;
    while (MatchKeyword("AND")) {
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseUnary());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = SqlExpr::Logical(LogicalOp::kAnd, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return std::move(lhs);
  }

  util::Result<std::unique_ptr<SqlExpr>> ParseUnary() {
    if (MatchKeyword("NOT")) {
      const util::NestingGuard guard(&depth_);
      ADPROM_RETURN_IF_ERROR(CheckDepth());
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> e, ParseUnary());
      ++height_;
      return SqlExpr::Not(std::move(e));
    }
    return ParsePrimary();
  }

  /// Every predicate (comparison, IS NULL, LIKE) is one node over leaves.
  util::Result<std::unique_ptr<SqlExpr>> ParsePrimary() {
    height_ = 1;
    if (Match(SqlTokenType::kLParen)) {
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> e, ParseExpr());
      if (!Match(SqlTokenType::kRParen))
        return util::Result<std::unique_ptr<SqlExpr>>(
            Error("expected ')' in expression"));
      return std::move(e);
    }
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseOperand());
    // IS [NOT] NULL
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      if (!MatchKeyword("NULL"))
        return util::Result<std::unique_ptr<SqlExpr>>(
            Error("expected NULL after IS"));
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kIsNull;
      e->negated = negated;
      e->lhs = std::move(lhs);
      return std::move(e);
    }
    // LIKE 'pattern'
    if (MatchKeyword("LIKE")) {
      if (Peek().type != SqlTokenType::kStringLiteral)
        return util::Result<std::unique_ptr<SqlExpr>>(
            Error("expected string literal after LIKE"));
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kLike;
      e->lhs = std::move(lhs);
      e->like_pattern = Advance().text;
      return std::move(e);
    }
    // Comparison
    if (Peek().type != SqlTokenType::kOperator)
      return util::Result<std::unique_ptr<SqlExpr>>(
          Error("expected comparison operator"));
    const std::string op = Advance().text;
    CompareOp cmp;
    if (op == "=") {
      cmp = CompareOp::kEq;
    } else if (op == "!=") {
      cmp = CompareOp::kNe;
    } else if (op == "<") {
      cmp = CompareOp::kLt;
    } else if (op == "<=") {
      cmp = CompareOp::kLe;
    } else if (op == ">") {
      cmp = CompareOp::kGt;
    } else if (op == ">=") {
      cmp = CompareOp::kGe;
    } else {
      return util::Result<std::unique_ptr<SqlExpr>>(
          Error("unsupported operator " + op));
    }
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseOperand());
    return SqlExpr::Compare(cmp, std::move(lhs), std::move(rhs));
  }

  util::Result<std::unique_ptr<SqlExpr>> ParseOperand() {
    const SqlToken& t = Peek();
    if (t.type == SqlTokenType::kIdentifier) {
      Advance();
      return SqlExpr::ColumnRef(t.text);
    }
    ADPROM_ASSIGN_OR_RETURN(Value v, ExpectLiteral());
    return SqlExpr::Literal(std::move(v));
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  /// Expression nesting levels open on the current parse path.
  size_t depth_ = 0;
  /// Height of the expression the last expression parse returned (1 for a
  /// predicate over leaves); AND/OR links charge it against the limit.
  size_t height_ = 0;
};

}  // namespace

util::Result<SqlStatement> ParseSql(const std::string& sql) {
  ADPROM_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, LexSql(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace adprom::db
