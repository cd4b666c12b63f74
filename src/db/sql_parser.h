#ifndef ADPROM_DB_SQL_PARSER_H_
#define ADPROM_DB_SQL_PARSER_H_

#include <cstddef>
#include <string>

#include "db/sql_ast.h"
#include "util/status.h"

namespace adprom::db {

/// Deepest expression nesting ParseSql accepts: each parenthesized
/// expression, each NOT and each link of an AND/OR chain (`a OR b OR c`
/// builds a tree two levels deep) is one level. SQL text reaches the parser
/// from injected payloads at run time, so deeper input must fail with a
/// Status instead of exhausting the stack.
inline constexpr size_t kMaxSqlNestingDepth = 256;

/// Parses one SQL statement (optionally terminated by ';'). Supported
/// grammar — deliberately a faithful subset of what the paper's client
/// applications issue:
///
///   SELECT (*|item[,item..]) FROM t [WHERE expr]
///          [ORDER BY col [ASC|DESC]] [LIMIT n]
///   item   := col | COUNT(*) | COUNT(col) | SUM(col) | AVG(col)
///           | MIN(col) | MAX(col)
///   INSERT INTO t [(col,..)] VALUES (lit,..)
///   UPDATE t SET col = lit [, col = lit ..] [WHERE expr]
///   DELETE FROM t [WHERE expr]
///   CREATE TABLE t (col TYPE, ..)        TYPE := INT | REAL | TEXT
///   expr   := or-chain of AND-chains of (NOT)? primary
///   primary:= operand (=|!=|<>|<|<=|>|>=) operand
///           | operand LIKE 'pattern' | operand IS [NOT] NULL | (expr)
///   operand:= col | int | real | 'string' | NULL
///
/// Note WHERE operands may be literal-vs-literal ('1'='1'), which is what
/// makes tautology injection expressible. Expressions nested deeper than
/// kMaxSqlNestingDepth fail with ParseError naming the offset.
util::Result<SqlStatement> ParseSql(const std::string& sql);

}  // namespace adprom::db

#endif  // ADPROM_DB_SQL_PARSER_H_
