#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "prog/lexer.h"
#include "prog/program.h"
#include "util/nesting_guard.h"
#include "util/strings.h"

namespace adprom::prog {

namespace {

/// Recursive-descent parser for MiniApp source.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Result<Program> ParseAll() {
    Program program;
    while (Peek().type != TokenType::kEnd) {
      ADPROM_ASSIGN_OR_RETURN(FunctionDef fn, ParseFunction());
      ADPROM_RETURN_IF_ERROR(program.AddFunction(std::move(fn)));
    }
    ADPROM_RETURN_IF_ERROR(program.Finalize());
    return std::move(program);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const char* kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchPunct(const char* p) {
    if (Peek().type == TokenType::kPunct && Peek().text == p) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchOperator(const char* op) {
    if (Peek().type == TokenType::kOperator && Peek().text == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekPunct(const char* p) const {
    return Peek().type == TokenType::kPunct && Peek().text == p;
  }

  util::Status Error(const std::string& what) const {
    return util::Status::ParseError(util::StrFormat(
        "line %d: %s (at '%s')", Peek().line, what.c_str(),
        Peek().text.c_str()));
  }

  /// Fails once the nesting opened so far, plus `below` further levels,
  /// exceeds kMaxNestingDepth.
  util::Status CheckDepth(size_t below = 0) const {
    if (depth_ + below <= kMaxNestingDepth) return util::Status::Ok();
    return Error(util::StrFormat("nesting deeper than %zu levels",
                                 kMaxNestingDepth));
  }

  util::Status ExpectPunct(const char* p) {
    if (!MatchPunct(p)) return Error(std::string("expected '") + p + "'");
    return util::Status::Ok();
  }

  util::Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier)
      return Error("expected identifier");
    return Advance().text;
  }

  util::Result<FunctionDef> ParseFunction() {
    const int line = Peek().line;
    if (!MatchKeyword("fn")) return Error("expected 'fn'");
    FunctionDef fn;
    fn.line = line;
    ADPROM_ASSIGN_OR_RETURN(fn.name, ExpectIdentifier());
    ADPROM_RETURN_IF_ERROR(ExpectPunct("("));
    if (!PeekPunct(")")) {
      do {
        ADPROM_ASSIGN_OR_RETURN(std::string param, ExpectIdentifier());
        fn.params.push_back(std::move(param));
      } while (MatchPunct(","));
    }
    ADPROM_RETURN_IF_ERROR(ExpectPunct(")"));
    ADPROM_ASSIGN_OR_RETURN(fn.body, ParseBlock());
    return std::move(fn);
  }

  util::Result<StmtList> ParseBlock() {
    const util::NestingGuard guard(&depth_);
    ADPROM_RETURN_IF_ERROR(CheckDepth());
    ADPROM_RETURN_IF_ERROR(ExpectPunct("{"));
    StmtList body;
    while (!PeekPunct("}")) {
      if (Peek().type == TokenType::kEnd) return Error("unclosed block");
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Stmt> s, ParseStmt());
      body.push_back(std::move(s));
    }
    ADPROM_RETURN_IF_ERROR(ExpectPunct("}"));
    return std::move(body);
  }

  util::Result<std::unique_ptr<Stmt>> ParseStmt() {
    const int line = Peek().line;
    if (MatchKeyword("var")) {
      ADPROM_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      if (!MatchOperator("="))
        return util::Result<std::unique_ptr<Stmt>>(
            Error("expected '=' in var declaration"));
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> value, ParseExpr());
      ADPROM_RETURN_IF_ERROR(ExpectPunct(";"));
      auto s = Stmt::VarDecl(std::move(name), std::move(value));
      s->line = line;
      return std::move(s);
    }
    if (MatchKeyword("if")) return ParseIf(line);
    if (MatchKeyword("while")) {
      ADPROM_RETURN_IF_ERROR(ExpectPunct("("));
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> cond, ParseExpr());
      ADPROM_RETURN_IF_ERROR(ExpectPunct(")"));
      ADPROM_ASSIGN_OR_RETURN(StmtList body, ParseBlock());
      auto s = Stmt::While(std::move(cond), std::move(body));
      s->line = line;
      return std::move(s);
    }
    if (MatchKeyword("return")) {
      std::unique_ptr<Expr> value;
      if (!PeekPunct(";")) {
        ADPROM_ASSIGN_OR_RETURN(value, ParseExpr());
      }
      ADPROM_RETURN_IF_ERROR(ExpectPunct(";"));
      auto s = Stmt::Return(std::move(value));
      s->line = line;
      return std::move(s);
    }
    // Assignment (IDENT '=' ...) vs expression statement: look ahead.
    if (Peek().type == TokenType::kIdentifier &&
        pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].type == TokenType::kOperator &&
        tokens_[pos_ + 1].text == "=") {
      std::string name = Advance().text;
      Advance();  // '='
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> value, ParseExpr());
      ADPROM_RETURN_IF_ERROR(ExpectPunct(";"));
      auto s = Stmt::Assign(std::move(name), std::move(value));
      s->line = line;
      return std::move(s);
    }
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
    ADPROM_RETURN_IF_ERROR(ExpectPunct(";"));
    auto s = Stmt::ExprStmt(std::move(e));
    s->line = line;
    return std::move(s);
  }

  util::Result<std::unique_ptr<Stmt>> ParseIf(int line) {
    const util::NestingGuard guard(&depth_);
    ADPROM_RETURN_IF_ERROR(CheckDepth());
    ADPROM_RETURN_IF_ERROR(ExpectPunct("("));
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> cond, ParseExpr());
    ADPROM_RETURN_IF_ERROR(ExpectPunct(")"));
    ADPROM_ASSIGN_OR_RETURN(StmtList then_body, ParseBlock());
    StmtList else_body;
    if (MatchKeyword("else")) {
      if (MatchKeyword("if")) {
        // else-if chain: wrap the nested if in a single-statement body.
        ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Stmt> nested,
                                ParseIf(Peek().line));
        else_body.push_back(std::move(nested));
      } else {
        ADPROM_ASSIGN_OR_RETURN(else_body, ParseBlock());
      }
    }
    auto s = Stmt::If(std::move(cond), std::move(then_body),
                      std::move(else_body));
    s->line = line;
    return std::move(s);
  }

  // Expression grammar: || > && > comparison > +- > */% > unary > primary.
  util::Result<std::unique_ptr<Expr>> ParseExpr() {
    const util::NestingGuard guard(&depth_);
    ADPROM_RETURN_IF_ERROR(CheckDepth());
    return ParseOr();
  }

  /// Charges one operator link joining a left operand of `*height` levels
  /// with the right operand just parsed (`height_`). Operator chains are
  /// built in a loop into left-deep trees, so the recursion never sees
  /// their depth: each link counts as one more nesting level here.
  util::Status AddLink(size_t* height) const {
    *height = 1 + std::max(*height, height_);
    return CheckDepth(*height - 1);
  }

  util::Result<std::unique_ptr<Expr>> ParseOr() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    size_t height = height_;
    while (MatchOperator("||")) {
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return std::move(lhs);
  }

  util::Result<std::unique_ptr<Expr>> ParseAnd() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseCmp());
    size_t height = height_;
    while (MatchOperator("&&")) {
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseCmp());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs));
    }
    height_ = height;
    return std::move(lhs);
  }

  util::Result<std::unique_ptr<Expr>> ParseCmp() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdd());
    static constexpr std::pair<const char*, BinOp> kOps[] = {
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"==", BinOp::kEq},
        {"!=", BinOp::kNe}, {"<", BinOp::kLt},  {">", BinOp::kGt},
    };
    for (const auto& [text, op] : kOps) {
      if (MatchOperator(text)) {
        size_t height = height_;
        ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdd());
        ADPROM_RETURN_IF_ERROR(AddLink(&height));
        height_ = height;
        return Expr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return std::move(lhs);
  }

  util::Result<std::unique_ptr<Expr>> ParseAdd() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMul());
    size_t height = height_;
    for (;;) {
      BinOp op;
      if (MatchOperator("+")) {
        op = BinOp::kAdd;
      } else if (MatchOperator("-")) {
        op = BinOp::kSub;
      } else {
        height_ = height;
        return std::move(lhs);
      }
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMul());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  util::Result<std::unique_ptr<Expr>> ParseMul() {
    ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
    size_t height = height_;
    for (;;) {
      BinOp op;
      if (MatchOperator("*")) {
        op = BinOp::kMul;
      } else if (MatchOperator("/")) {
        op = BinOp::kDiv;
      } else if (MatchOperator("%")) {
        op = BinOp::kMod;
      } else {
        height_ = height;
        return std::move(lhs);
      }
      ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnary());
      ADPROM_RETURN_IF_ERROR(AddLink(&height));
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
  }

  util::Result<std::unique_ptr<Expr>> ParseUnary() {
    for (const auto& [text, op] : {std::pair{"!", UnOp::kNot},
                                   std::pair{"-", UnOp::kNeg}}) {
      if (MatchOperator(text)) {
        const util::NestingGuard guard(&depth_);
        ADPROM_RETURN_IF_ERROR(CheckDepth());
        ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseUnary());
        ++height_;
        return Expr::Unary(op, std::move(e));
      }
    }
    return ParsePrimary();
  }

  util::Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    const int line = t.line;
    height_ = 0;
    switch (t.type) {
      case TokenType::kIntLiteral: {
        Advance();
        auto e = Expr::IntLit(std::strtoll(t.text.c_str(), nullptr, 10));
        e->line = line;
        return std::move(e);
      }
      case TokenType::kRealLiteral: {
        Advance();
        auto e = Expr::RealLit(std::strtod(t.text.c_str(), nullptr));
        e->line = line;
        return std::move(e);
      }
      case TokenType::kStrLiteral: {
        Advance();
        auto e = Expr::StrLit(t.text);
        e->line = line;
        return std::move(e);
      }
      case TokenType::kIdentifier: {
        std::string name = Advance().text;
        if (MatchPunct("(")) {
          std::vector<std::unique_ptr<Expr>> args;
          size_t height = 0;
          if (!PeekPunct(")")) {
            do {
              ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
              height = std::max(height, height_ + 1);
              args.push_back(std::move(arg));
            } while (MatchPunct(","));
          }
          ADPROM_RETURN_IF_ERROR(ExpectPunct(")"));
          height_ = height;
          auto e = Expr::Call(std::move(name), std::move(args));
          e->line = line;
          return std::move(e);
        }
        auto e = Expr::Var(std::move(name));
        e->line = line;
        return std::move(e);
      }
      case TokenType::kPunct:
        if (t.text == "(") {
          Advance();
          ADPROM_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
          ADPROM_RETURN_IF_ERROR(ExpectPunct(")"));
          return std::move(e);
        }
        break;
      default:
        break;
    }
    return util::Result<std::unique_ptr<Expr>>(Error("expected expression"));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Nesting levels open on the current parse path.
  size_t depth_ = 0;
  /// Height of the expression the last expression parse returned (0 for a
  /// leaf); operator links charge it against the limit.
  size_t height_ = 0;
};

}  // namespace

util::Result<Program> ParseProgram(const std::string& source) {
  ADPROM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace adprom::prog
