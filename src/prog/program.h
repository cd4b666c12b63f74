#ifndef ADPROM_PROG_PROGRAM_H_
#define ADPROM_PROG_PROGRAM_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "prog/ast.h"
#include "util/status.h"

namespace adprom::prog {

/// A complete MiniApp program: an ordered list of functions, one of which
/// must be `main`. After `Finalize()`, every call expression has a
/// program-unique `call_site_id` and user-function calls are
/// distinguishable from library calls.
class Program {
 public:
  Program() = default;

  // Owns a mutable AST; moves only.
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Appends a function definition. Fails if a function with the same name
  /// already exists.
  util::Status AddFunction(FunctionDef fn);

  /// Assigns unique call-site ids (deterministic: source order) and checks
  /// basic semantic rules: `main` exists, user calls match arities, variable
  /// reads are preceded by a declaration or parameter. Must be called once
  /// after all functions are added, and re-called after mutation.
  util::Status Finalize();

  bool finalized() const { return finalized_; }

  const std::vector<FunctionDef>& functions() const { return functions_; }
  std::vector<FunctionDef>& mutable_functions() { return functions_; }

  const FunctionDef* FindFunction(const std::string& name) const;
  FunctionDef* FindMutableFunction(const std::string& name);

  /// True if `name` is a user-defined function in this program (as opposed
  /// to a library call).
  bool IsUserFunction(const std::string& name) const;

  int num_call_sites() const { return next_call_site_id_; }

  /// Deep copy, preserving call-site ids until the copy is re-finalized.
  Program Clone() const;

 private:
  std::vector<FunctionDef> functions_;
  std::map<std::string, size_t> index_;  // name -> position in functions_
  int next_call_site_id_ = 0;
  bool finalized_ = false;
};

/// Deepest syntactic nesting ParseProgram accepts. Each nested block, each
/// `if` (an `else if` chain counts one per branch), each expression
/// (so each parenthesis level), each prefix `!` or `-` and each link of a
/// binary-operator chain (`a + b + c` builds a tree two levels deep) is one
/// level. It bounds the recursion of the parser and of every pass that
/// walks the tree, with room to spare for real programs: the bash-like
/// corpus app's 170-branch dispatch chain nests about 175 deep.
inline constexpr size_t kMaxNestingDepth = 512;

/// Parses MiniApp source text into a finalized Program. Fails with
/// ParseError, naming the line, on a syntax error or on nesting deeper
/// than kMaxNestingDepth.
util::Result<Program> ParseProgram(const std::string& source);

}  // namespace adprom::prog

#endif  // ADPROM_PROG_PROGRAM_H_
