#ifndef ADPROM_TESTS_PROG_NESTING_PROGRAMS_H_
#define ADPROM_TESTS_PROG_NESTING_PROGRAMS_H_

#include <cstddef>
#include <string>

#include "prog/program.h"

namespace adprom::prog::testing {

// Generators of deeply nested MiniApp programs, one per construct the
// parser counts as a nesting level. Each comment gives the deepest level
// the program reaches, so `count` can be chosen to land exactly on
// kMaxNestingDepth (the function body is level 1, each statement's
// expression one more).

inline std::string Repeat(const std::string& piece, size_t count) {
  std::string out;
  out.reserve(piece.size() * count);
  for (size_t i = 0; i < count; ++i) out += piece;
  return out;
}

/// `count` parentheses around one literal, on line 2: level count + 2.
inline std::string NestedParens(size_t count) {
  return "fn main() {\n  var x = " + Repeat("(", count) + "1" +
         Repeat(")", count) + ";\n  print(x);\n}\n";
}

/// `count` nested if blocks, one per line: level 2 * count + 2.
inline std::string NestedIfs(size_t count) {
  return "fn main() {\n" + Repeat("if (1) {\n", count) + "var y = 1;\n" +
         Repeat("}\n", count) + "}\n";
}

/// An if followed by `count` else-if branches: level count + 4.
inline std::string ElseIfChain(size_t count) {
  std::string source = "fn main() {\n  var c = scan();\n  var y = 0;\n";
  source += "  if (c == \"0\") {\n    y = 0;\n  }";
  for (size_t i = 1; i <= count; ++i) {
    const std::string n = std::to_string(i);
    source += " else if (c == \"" + n + "\") {\n    y = " + n + ";\n  }";
  }
  return source + "\n  print(y);\n}\n";
}

/// `count` prefix `!` operators on one literal: level count + 2.
inline std::string NotChain(size_t count) {
  return "fn main() {\n  var x = " + Repeat("!", count) +
         "1;\n  print(x);\n}\n";
}

/// `y = x op x op ...` with `count` links of the binary operator `op`
/// (a left-deep tree): level count + 1.
inline std::string OperatorChain(size_t count, const std::string& op = "+") {
  return "fn main() {\n  var x = 1;\n  var y = x" +
         Repeat(" " + op + " x", count) + ";\n  print(y);\n}\n";
}

}  // namespace adprom::prog::testing

#endif  // ADPROM_TESTS_PROG_NESTING_PROGRAMS_H_
