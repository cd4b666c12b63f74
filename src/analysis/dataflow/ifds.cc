#include "analysis/dataflow/ifds.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <deque>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/absint/replay.h"
#include "analysis/dataflow/flow_graph.h"
#include "analysis/dataflow/solver.h"
#include "analysis/hashing.h"
#include "analysis/incremental.h"
#include "analysis/labeling.h"
#include "prog/scc.h"
#include "util/logging.h"

namespace adprom::analysis::dataflow {

namespace {

/// Taint tokens are ints sharing one space with three ranges:
///   t < 0            — symbolic parameter k of the function under
///                      analysis (t == -1 - k); instantiated by callers.
///   0 <= t < base    — a concrete source call site (the DDG edge target).
///   t >= base        — a concat-build site (index t - base into the
///                      registry); concrete, flows like a source token but
///                      never becomes a fact, a birth or a witness.
constexpr int kConcatBase = 1 << 30;

bool IsParamToken(int t) { return t < 0; }
bool IsConcatToken(int t) { return t >= kConcatBase; }
int ParamToken(size_t k) { return -1 - static_cast<int>(k); }
size_t ParamIndexOf(int t) { return static_cast<size_t>(-1 - t); }

struct FnSummary {
  std::set<int> ret_tokens;
  std::map<size_t, std::set<int>> param_sinks;

  bool operator==(const FnSummary&) const = default;
};

/// The value an expression carries, extended with the provenance the
/// witness tiers need: which in-state variables contributed tokens, and
/// which tokens are *born* inside the expression itself (source calls and
/// concrete callee-return tokens).
struct Flow {
  std::set<int> tokens;
  std::set<std::string> vars;
  std::set<int> gens;
};

void MergeFlow(Flow* into, const Flow& from) {
  into->tokens.insert(from.tokens.begin(), from.tokens.end());
  into->vars.insert(from.vars.begin(), from.vars.end());
  into->gens.insert(from.gens.begin(), from.gens.end());
}

void EncodeFlow(const Flow& f, BinaryWriter* w) {
  Put(*w, f.tokens);
  Put(*w, f.vars);
  Put(*w, f.gens);
}

Flow DecodeFlow(BinaryReader* r) {
  Flow f;
  f.tokens = Get<std::set<int>>(*r);
  f.vars = Get<std::set<std::string>>(*r);
  f.gens = Get<std::set<int>>(*r);
  return f;
}

/// One sink obligation observed at a node: token `token` (concrete or a
/// parameter of the observing function) may reach sink `site`, either at
/// a direct sink call here (`via_callee` empty) or by being passed as
/// `via_param` into `via_callee` whose summary carries the obligation.
struct SinkFact {
  int site = -1;
  int token = 0;
  int node = -1;
  std::string via_callee;
  size_t via_param = 0;
  std::set<std::string> vars;  // in-state vars feeding the observed flow
  bool from_gen = false;       // token born inside this node's expression
  /// Sealed after the conditioned feasibility pass (true when the filter
  /// is off or skipped); cached with the fact so warm runs skip the
  /// conditioned solves entirely.
  bool locally_feasible = true;
};

/// Where a concrete token enters a function: the node whose expression
/// births it (its own source call, or a call returning it).
struct Birth {
  int node = -1;
  std::string call;
};

/// Evaluates which tokens an expression carries, as the extended Flow
/// value. With a Recorder attached (the post-fixpoint observation pass) it
/// also emits sink facts, births, summary edges, append tokens reaching
/// sinks and the diagnostic parameter map; transfer functions run it bare.
class TokenEval {
 public:
  using Domain = std::map<std::string, std::set<int>>;

  struct Recorder {
    int node = -1;
    std::vector<SinkFact>* facts = nullptr;
    /// sink site -> concat-build indices whose appended value reaches it.
    std::map<int, std::set<int>>* concat_sinks = nullptr;
    std::map<int, std::vector<Birth>>* births = nullptr;
    std::map<std::string, std::map<std::string, std::set<int>>>* param_vars =
        nullptr;
    std::map<size_t, std::set<int>>* param_sinks = nullptr;
    size_t* summary_edges = nullptr;
  };

  TokenEval(const prog::Program& program, const IfdsOptions& options,
            const std::vector<FnSummary>& summaries,
            const std::map<std::string, size_t>& fn_index)
      : program_(program),
        options_(options),
        summaries_(summaries),
        fn_index_(fn_index) {}

  Flow Eval(const prog::Expr& e, const Domain& state, Recorder* rec) const {
    switch (e.kind) {
      case prog::ExprKind::kIntLit:
      case prog::ExprKind::kRealLit:
      case prog::ExprKind::kStrLit:
        return {};
      case prog::ExprKind::kVar: {
        auto it = state.find(e.name);
        if (it == state.end() || it->second.empty()) return {};
        Flow out;
        out.tokens = it->second;
        out.vars.insert(e.name);
        return out;
      }
      case prog::ExprKind::kBinary: {
        Flow out = Eval(*e.lhs, state, rec);
        MergeFlow(&out, Eval(*e.rhs, state, rec));
        return out;
      }
      case prog::ExprKind::kUnary:
        return Eval(*e.lhs, state, rec);
      case prog::ExprKind::kCall:
        return EvalCall(e, state, rec);
    }
    return {};
  }

 private:
  Flow EvalCall(const prog::Expr& call, const Domain& state,
                Recorder* rec) const {
    std::vector<Flow> args;
    args.reserve(call.args.size());
    Flow merged;
    for (const auto& arg : call.args) {
      args.push_back(Eval(*arg, state, rec));
      MergeFlow(&merged, args.back());
    }

    if (program_.IsUserFunction(call.name)) {
      const FnSummary& summary = summaries_[fn_index_.at(call.name)];
      const prog::FunctionDef* callee = program_.FindFunction(call.name);
      if (rec != nullptr) {
        for (const auto& [k, sites] : summary.param_sinks) {
          if (k >= args.size()) continue;
          for (int t : args[k].tokens) {
            if (IsConcatToken(t)) {
              for (int site : sites) RecordConcat(rec, site, t);
              continue;
            }
            if (rec->summary_edges != nullptr) {
              *rec->summary_edges += sites.size();
            }
            if (IsParamToken(t) && rec->param_sinks != nullptr) {
              (*rec->param_sinks)[ParamIndexOf(t)].insert(sites.begin(),
                                                          sites.end());
            }
            for (int site : sites) {
              rec->facts->push_back({site, t, rec->node, call.name, k,
                                     args[k].vars,
                                     args[k].gens.contains(t)});
            }
          }
        }
        for (size_t k = 0; k < args.size() && k < callee->params.size();
             ++k) {
          for (int t : args[k].tokens) {
            if (!IsParamToken(t) && !IsConcatToken(t)) {
              (*rec->param_vars)[call.name][callee->params[k]].insert(t);
            }
          }
        }
      }
      Flow ret;
      for (int t : summary.ret_tokens) {
        if (rec != nullptr && rec->summary_edges != nullptr) {
          ++*rec->summary_edges;  // return-flow summary instantiation
        }
        if (IsParamToken(t)) {
          const size_t k = ParamIndexOf(t);
          if (k < args.size()) MergeFlow(&ret, args[k]);
        } else {
          ret.tokens.insert(t);
          if (IsConcatToken(t)) continue;  // carried along, never born
          ret.gens.insert(t);
          if (rec != nullptr) RecordBirth(rec, t, call.name);
        }
      }
      return ret;
    }

    if (options_.sanitizer_calls.contains(call.name)) return {};
    if (options_.config.sink_calls.contains(call.name) && rec != nullptr) {
      for (int t : merged.tokens) {
        if (IsConcatToken(t)) {
          RecordConcat(rec, call.call_site_id, t);
          continue;
        }
        if (IsParamToken(t) && rec->param_sinks != nullptr) {
          (*rec->param_sinks)[ParamIndexOf(t)].insert(call.call_site_id);
        }
        rec->facts->push_back({call.call_site_id, t, rec->node, "", 0,
                               merged.vars, merged.gens.contains(t)});
      }
    }
    if (options_.config.source_calls.contains(call.name)) {
      Flow out = std::move(merged);
      out.tokens.insert(call.call_site_id);
      out.gens.insert(call.call_site_id);
      if (rec != nullptr) RecordBirth(rec, call.call_site_id, call.name);
      return out;
    }
    return merged;
  }

  static void RecordConcat(Recorder* rec, int site, int token) {
    (*rec->concat_sinks)[site].insert(token - kConcatBase);
  }

  static void RecordBirth(Recorder* rec, int token, const std::string& call) {
    if (rec->births == nullptr) return;
    std::vector<Birth>& list = (*rec->births)[token];
    for (const Birth& b : list) {
      if (b.node == rec->node) return;
    }
    list.push_back({rec->node, call});
  }

  const prog::Program& program_;
  const IfdsOptions& options_;
  const std::vector<FnSummary>& summaries_;
  const std::map<std::string, size_t>& fn_index_;
};

/// The per-function reachability client: each variable maps to the
/// tokens it may carry, assignment is a strong update, and every
/// observation is deferred to the post-fixpoint pass. A registered append
/// statement adds its own concat token to a tainted value.
class IfdsClient {
 public:
  using Domain = TokenEval::Domain;

  IfdsClient(const TokenEval& eval, const prog::FunctionDef& fn,
             const std::map<const prog::Stmt*, int>& concat_tokens)
      : eval_(eval), fn_(fn), concat_tokens_(concat_tokens) {}

  Domain Boundary() const {
    Domain out;
    for (size_t k = 0; k < fn_.params.size(); ++k) {
      out[fn_.params[k]] = {ParamToken(k)};
    }
    return out;
  }

  void Join(Domain* into, const Domain& from) const {
    for (const auto& [var, tokens] : from) {
      if (tokens.empty()) continue;
      (*into)[var].insert(tokens.begin(), tokens.end());
    }
  }

  Domain Transfer(const FlowNode& node, const Domain& in) {
    if (node.op != FlowOp::kDef) return in;
    Domain out = in;
    Flow value = eval_.Eval(*node.expr, in, nullptr);
    if (value.tokens.empty()) {
      out.erase(node.def);
    } else {
      auto it = concat_tokens_.find(node.stmt);
      if (it != concat_tokens_.end()) value.tokens.insert(it->second);
      out[node.def] = std::move(value.tokens);
    }
    return out;
  }

 private:
  const TokenEval& eval_;
  const prog::FunctionDef& fn_;
  const std::map<const prog::Stmt*, int>& concat_tokens_;
};

bool HasToken(const TokenEval::Domain& state, const std::string& var,
              int token) {
  auto it = state.find(var);
  return it != state.end() && it->second.contains(token);
}

// ---------------------------------------------------------------------------
// Conditioned feasibility solve.
// ---------------------------------------------------------------------------

/// The feasibility domain for one demanded token: `lambda` is the plain
/// path-insensitive abstract state (what the absint engine computes), and
/// `carriers` holds, per variable currently carrying the token, the
/// abstract state joined only over the CFG paths the token flowed along.
/// Every carrier state is below lambda; branch refinement that empties a
/// carrier proves every path realizing that flow infeasible.
struct CondState {
  absint::AbsState lambda;
  std::map<std::string, absint::AbsState> carriers;

  bool operator==(const CondState&) const = default;
};

class CondClient {
 public:
  using Domain = CondState;

  CondClient(const FlowGraph& graph, const prog::FunctionDef& fn,
             std::optional<size_t> param_index,
             const std::set<int>& birth_defs, const std::set<int>& carries,
             const std::map<int, std::set<std::string>>& contributors,
             const std::map<std::string, absint::AbsValue>& returns)
      : fn_(fn),
        param_index_(param_index),
        birth_defs_(birth_defs),
        carries_(carries),
        contributors_(contributors),
        returns_(returns),
        loop_head_joins_(graph.size(), 0) {}

  Domain Boundary() const {
    Domain d;
    d.lambda.reachable = true;
    if (param_index_.has_value() && *param_index_ < fn_.params.size()) {
      d.carriers[fn_.params[*param_index_]] = d.lambda;
    }
    return d;
  }

  void Join(Domain* into, const Domain& from) const {
    JoinInto(&into->lambda, from.lambda);
    for (const auto& [var, state] : from.carriers) {
      if (!state.reachable) continue;
      JoinInto(&into->carriers[var], state);
    }
  }

  Domain Transfer(const FlowNode& node, const Domain& in) {
    if (node.op != FlowOp::kDef) return in;
    Domain out = in;
    ApplyDef(node, &out.lambda);
    for (auto& [var, state] : out.carriers) ApplyDef(node, &state);
    if (carries_.contains(node.id)) {
      absint::AbsState carrier;  // bottom: joined over contributing paths
      auto it = contributors_.find(node.id);
      if (it != contributors_.end()) {
        for (const std::string& var : it->second) {
          auto c = in.carriers.find(var);
          if (c != in.carriers.end()) JoinInto(&carrier, c->second);
        }
      }
      if (birth_defs_.contains(node.id)) JoinInto(&carrier, in.lambda);
      if (carrier.reachable) {
        ApplyDef(node, &carrier);
        out.carriers[node.def] = std::move(carrier);
      } else {
        out.carriers.erase(node.def);
      }
    } else {
      out.carriers.erase(node.def);  // strong update kills the flow
    }
    return out;
  }

  Domain TransferEdge(const FlowNode& pred, int to_id,
                      const Domain& out) const {
    if (pred.op != FlowOp::kBranch || pred.expr == nullptr ||
        pred.true_succ == pred.false_succ) {
      return out;
    }
    if (!out.lambda.reachable && out.carriers.empty()) return out;
    bool assume = false;
    if (to_id == pred.true_succ) {
      assume = true;
    } else if (to_id != pred.false_succ) {
      return out;
    }
    Domain refined = out;
    if (refined.lambda.reachable &&
        !AssumeCondition(*pred.expr, assume, &refined.lambda, returns_)) {
      return Domain{};  // the edge is infeasible outright
    }
    for (auto it = refined.carriers.begin(); it != refined.carriers.end();) {
      if (!AssumeCondition(*pred.expr, assume, &it->second, returns_)) {
        it = refined.carriers.erase(it);  // every realizing path contradicts
      } else {
        ++it;
      }
    }
    return refined;
  }

  Domain WidenJoin(const FlowNode& node, const Domain& previous,
                   const Domain& joined) {
    if (!node.is_loop_head) return joined;
    constexpr int kWidenDelay = 3;
    const int visits = ++loop_head_joins_[static_cast<size_t>(node.id)];
    if (visits <= kWidenDelay) return joined;
    Domain widened = joined;
    WidenState(&widened.lambda, previous.lambda);
    for (auto& [var, state] : widened.carriers) {
      auto prev = previous.carriers.find(var);
      if (prev != previous.carriers.end()) WidenState(&state, prev->second);
    }
    return widened;
  }

 private:
  void ApplyDef(const FlowNode& node, absint::AbsState* state) const {
    if (!state->reachable) return;
    absint::AbsValue value = EvalExpr(*node.expr, *state, returns_);
    if (value.IsTop()) {
      state->vars.erase(node.def);
    } else {
      state->vars[node.def] = std::move(value);
    }
  }

  static void WidenState(absint::AbsState* state,
                         const absint::AbsState& previous) {
    if (!state->reachable || !previous.reachable) return;
    for (auto& [name, value] : state->vars) {
      auto prev = previous.vars.find(name);
      if (prev == previous.vars.end()) continue;
      if (value.kind() == absint::AbsValue::Kind::kInt &&
          prev->second.kind() == absint::AbsValue::Kind::kInt) {
        value = absint::AbsValue::Int(
            value.interval().WidenFrom(prev->second.interval()));
      }
    }
    for (auto it = state->vars.begin(); it != state->vars.end();) {
      if (it->second.IsTop()) {
        it = state->vars.erase(it);
      } else {
        ++it;
      }
    }
  }

  const prog::FunctionDef& fn_;
  std::optional<size_t> param_index_;
  const std::set<int>& birth_defs_;
  const std::set<int>& carries_;
  const std::map<int, std::set<std::string>>& contributors_;
  const std::map<std::string, absint::AbsValue>& returns_;
  std::vector<int> loop_head_joins_;
};

/// Per node: did the conditioned lambda reach it, and which carriers
/// survived into its in-state. Enough to decide every fact verdict.
struct CondDigest {
  std::vector<std::pair<bool, std::set<std::string>>> in;
};

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

std::string ExprToText(const prog::Expr& e) {
  switch (e.kind) {
    case prog::ExprKind::kIntLit:
      return std::to_string(e.int_value);
    case prog::ExprKind::kRealLit: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", e.real_value);
      return buf;
    }
    case prog::ExprKind::kStrLit:
      return "\"" + e.str_value + "\"";
    case prog::ExprKind::kVar:
      return e.name;
    case prog::ExprKind::kBinary:
      return "(" + ExprToText(*e.lhs) + " " + prog::BinOpName(e.bin_op) +
             " " + ExprToText(*e.rhs) + ")";
    case prog::ExprKind::kUnary:
      return (e.un_op == prog::UnOp::kNot ? "!" : "-") + ExprToText(*e.lhs);
    case prog::ExprKind::kCall: {
      std::string out = e.name + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToText(*e.args[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

std::string NodeText(const FlowNode& node) {
  switch (node.op) {
    case FlowOp::kEntry:
      return "entry";
    case FlowOp::kExit:
      return "exit";
    case FlowOp::kJoin:
      return "join";
    case FlowOp::kDef:
      return (node.is_decl ? "var " : "") + node.def + " = " +
             ExprToText(*node.expr);
    case FlowOp::kBranch: {
      const bool is_while =
          node.stmt != nullptr && node.stmt->kind == prog::StmtKind::kWhile;
      return std::string(is_while ? "while " : "if ") +
             ExprToText(*node.expr);
    }
    case FlowOp::kReturn:
      return node.expr == nullptr ? "return"
                                  : "return " + ExprToText(*node.expr);
    case FlowOp::kEval:
      return ExprToText(*node.expr);
  }
  return "?";
}

std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

void CollectLiteralText(const prog::Expr& e, std::string* out) {
  switch (e.kind) {
    case prog::ExprKind::kStrLit:
      *out += e.str_value;
      return;
    case prog::ExprKind::kBinary:
      CollectLiteralText(*e.lhs, out);
      CollectLiteralText(*e.rhs, out);
      return;
    case prog::ExprKind::kUnary:
      CollectLiteralText(*e.lhs, out);
      return;
    case prog::ExprKind::kCall:
      for (const auto& arg : e.args) CollectLiteralText(*arg, out);
      return;
    default:
      return;
  }
}

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// True for `v = <expr>` where the RHS is a `+` expression reading `v`
/// itself — the incremental strcat-style build-up of Fig. 2.
bool IsSelfAppend(const prog::Stmt& s) {
  if (s.kind != prog::StmtKind::kAssign) return false;
  if (s.expr == nullptr || s.expr->kind != prog::ExprKind::kBinary ||
      s.expr->bin_op != prog::BinOp::kAdd) {
    return false;
  }
  std::vector<std::string> reads;
  CollectVarReads(*s.expr, &reads);
  return std::find(reads.begin(), reads.end(), s.target) != reads.end();
}

void RegisterConcatSites(const prog::FunctionDef& fn,
                         const prog::StmtList& body,
                         std::vector<ConcatBuildSite>* registry,
                         std::map<const prog::Stmt*, int>* tokens) {
  for (const auto& stmt : body) {
    if (IsSelfAppend(*stmt)) {
      (*tokens)[stmt.get()] =
          kConcatBase + static_cast<int>(registry->size());
      registry->push_back({fn.name, stmt->target, stmt->line});
    }
    RegisterConcatSites(fn, stmt->then_body, registry, tokens);
    RegisterConcatSites(fn, stmt->else_body, registry, tokens);
  }
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

class IfdsEngine {
 public:
  IfdsEngine(const prog::Program& program, const IfdsOptions& options)
      : program_(program),
        options_(options),
        eval_(program, options, summaries_, fn_index_) {}

  IfdsResult Run() {
    const auto& fns = program_.functions();
    const size_t count = fns.size();
    for (size_t i = 0; i < count; ++i) fn_index_[fns[i].name] = i;
    for (const prog::FunctionDef& fn : fns) {
      returns_top_[fn.name] = absint::AbsValue::Top();
      if (options_.track_concat_builds) {
        RegisterConcatSites(fn, fn.body, &concat_sites_, &concat_tokens_);
      }
    }

    graphs_.reserve(count);
    std::vector<std::vector<int>> adjacency(count);
    for (size_t i = 0; i < count; ++i) {
      graphs_.push_back(FlowGraph::Build(fns[i]));
      std::set<int> callees;
      CollectCallees(fns[i].body, &callees);
      adjacency[i].assign(callees.begin(), callees.end());
    }

    summaries_.assign(count, {});
    solved_.resize(count);
    solved_valid_.assign(count, 0);
    facts_.assign(count, {});
    concat_sinks_.assign(count, {});
    births_.assign(count, {});
    def_flows_.assign(count, {});
    var_tokens_.assign(count, {});
    param_vars_.assign(count, {});
    summary_edges_.assign(count, 0);
    cond_.assign(count, {});
    demanded_count_.assign(count, 0);
    feasible_obligations_.assign(count, {});
    filter_skipped_.assign(count, 0);
    prov_.resize(count);

    cache_ = options_.summary_cache;
    if (cache_ != nullptr) {
      body_hash_.resize(count);
      for (size_t i = 0; i < count; ++i) {
        body_hash_[i] = HashFunctionBody(fns[i]);
      }
      // Concat tokens are program-ordered global indices, so a function's
      // key must cover its own: an append site added *elsewhere* shifts
      // them even when this function's text is unchanged.
      std::vector<Hasher> concat(count);
      for (size_t i = 0; i < concat_sites_.size(); ++i) {
        concat[fn_index_.at(concat_sites_[i].function)].U64(i);
      }
      concat_hash_.resize(count);
      for (size_t i = 0; i < count; ++i) concat_hash_[i] = concat[i].digest();
      summary_hash_.assign(count, 0);
      Hasher fp;
      fp.Str("ifds");
      auto chain_set = [&fp](const std::set<std::string>& s) {
        fp.Size(s.size());
        for (const std::string& e : s) fp.Str(e);
      };
      chain_set(options_.config.source_calls);
      chain_set(options_.config.sink_calls);
      chain_set(options_.sanitizer_calls);
      fp.Bool(options_.feasibility_filter);
      fp.Bool(options_.track_concat_builds);
      // The schema catalog feeds column resolution; fold it into the
      // fingerprint so a schema edit conservatively invalidates.
      fp.U64(HashSchemaCatalog(&options_.schemas));
      config_fp_ = fp.digest();
    }

    const prog::SccDecomposition scc = prog::ComputeSccs(adjacency);
    for (const std::vector<int>& level : scc.levels) {
      util::ParallelFor(options_.pool, level.size(), [&](size_t i) {
        SolveComponent(scc.components[static_cast<size_t>(level[i])],
                       adjacency);
      });
    }

    return Assemble();
  }

 private:
  // -- plain reachability tier ------------------------------------------

  void CollectCallees(const prog::StmtList& body, std::set<int>* out) const {
    for (const auto& stmt : body) {
      if (stmt->expr != nullptr) {
        std::vector<const prog::Expr*> calls;
        prog::CollectCalls(*stmt->expr, &calls);
        for (const prog::Expr* call : calls) {
          auto it = fn_index_.find(call->name);
          if (it != fn_index_.end()) {
            out->insert(static_cast<int>(it->second));
          }
        }
      }
      CollectCallees(stmt->then_body, out);
      CollectCallees(stmt->else_body, out);
    }
  }

  void SolveFunction(size_t index) {
    const prog::FunctionDef& fn = program_.functions()[index];
    IfdsClient client(eval_, fn, concat_tokens_);
    solved_[index] = Solve(graphs_[index], Direction::kForward, &client);
    solved_valid_[index] = 1;
    PostPass(index);
  }

  /// Re-solves the plain reachability fixpoint of a cache-hit function on
  /// demand (the witness tier walks the solved states, which are not part
  /// of the cached payload). The converged summaries are already in
  /// place, so one solve reproduces the cold fixpoint exactly. Called
  /// only from the serial witness-reconstruction tier.
  void EnsureSolved(size_t index) {
    if (solved_valid_[index]) return;
    solved_valid_[index] = 1;
    IfdsClient client(eval_, program_.functions()[index], concat_tokens_);
    solved_[index] = Solve(graphs_[index], Direction::kForward, &client);
  }

  /// Recomputes every observation of `index` against the solved fixpoint:
  /// sink facts, append tokens at sinks, births, summary (return tokens +
  /// parameter obligations), diagnostic maps. Deterministic — nodes are
  /// walked in id order.
  void PostPass(size_t index) {
    facts_[index].clear();
    concat_sinks_[index].clear();
    births_[index].clear();
    def_flows_[index].clear();
    var_tokens_[index].clear();
    param_vars_[index].clear();
    summary_edges_[index] = 0;
    FnSummary summary;

    TokenEval::Recorder rec;
    rec.facts = &facts_[index];
    rec.concat_sinks = &concat_sinks_[index];
    rec.births = &births_[index];
    rec.param_vars = &param_vars_[index];
    rec.param_sinks = &summary.param_sinks;
    rec.summary_edges = &summary_edges_[index];

    const FlowGraph& graph = graphs_[index];
    for (const FlowNode& node : graph.nodes()) {
      if (node.expr == nullptr) continue;
      if (node.op != FlowOp::kDef && node.op != FlowOp::kBranch &&
          node.op != FlowOp::kEval && node.op != FlowOp::kReturn) {
        continue;
      }
      rec.node = node.id;
      const Flow flow = eval_.Eval(
          *node.expr, solved_[index].states[static_cast<size_t>(node.id)].in,
          &rec);
      if (node.op == FlowOp::kDef) {
        def_flows_[index][node.id] = flow;
      } else if (node.op == FlowOp::kReturn) {
        summary.ret_tokens.insert(flow.tokens.begin(), flow.tokens.end());
      }
    }
    for (const auto& states : solved_[index].states) {
      for (const auto& [var, tokens] : states.out) {
        for (int t : tokens) {
          if (!IsParamToken(t) && !IsConcatToken(t)) {
            var_tokens_[index][var].insert(t);
          }
        }
      }
    }
    summaries_[index] = std::move(summary);
  }

  void SolveComponent(const std::vector<int>& members,
                      const std::vector<std::vector<int>>& adjacency) {
    bool recursive = members.size() > 1;
    if (!recursive) {
      const int v = members[0];
      const auto& succs = adjacency[static_cast<size_t>(v)];
      recursive = std::find(succs.begin(), succs.end(), v) != succs.end();
    }
    if (!recursive) {
      const size_t index = static_cast<size_t>(members[0]);
      const std::string& name = program_.functions()[index].name;
      uint64_t key = 0;
      if (cache_ != nullptr) {
        key = EntryKey(index, adjacency);
        std::string payload;
        if (cache_->Lookup(config_fp_, name, key, &payload, &cache_stats_)) {
          ADPROM_CHECK_MSG(DecodeEntry(index, payload),
                           "corrupt ifds cache entry for " + name);
          summary_hash_[index] = CalleeVisibleHash(index);
          return;
        }
      }
      SolveFunction(index);
      if (options_.feasibility_filter) CondPass(index);
      demanded_count_[index] = cond_[index].size();
      SealFacts(index);
      FinishObligations(index);
      if (cache_ != nullptr) {
        cache_->Store(config_fp_, name, key, EncodeEntry(index));
        summary_hash_[index] = CalleeVisibleHash(index);
      }
      return;
    }

    // Recursive components cache as a unit under one component key (the
    // mutual fixpoint reads every member body): all-or-nothing, with the
    // group's counters folded in under the store lock.
    std::vector<int> ordered(members);
    std::sort(ordered.begin(), ordered.end(), [&](int a, int b) {
      return program_.functions()[static_cast<size_t>(a)].name <
             program_.functions()[static_cast<size_t>(b)].name;
    });
    std::vector<uint64_t> member_keys(ordered.size(), 0);
    if (cache_ != nullptr) {
      const std::set<int> member_set(members.begin(), members.end());
      const uint64_t comp_key = ComponentKey(ordered, adjacency, member_set);
      PassCacheStats probe;
      std::vector<std::string> payloads(ordered.size());
      bool all_hit = true;
      for (size_t i = 0; i < ordered.size(); ++i) {
        const auto vi = static_cast<size_t>(ordered[i]);
        member_keys[i] =
            Hasher(comp_key).Str(program_.functions()[vi].name).digest();
        if (!cache_->Lookup(config_fp_, program_.functions()[vi].name,
                            member_keys[i], &payloads[i], &probe)) {
          all_hit = false;
        }
      }
      if (all_hit) {
        for (size_t i = 0; i < ordered.size(); ++i) {
          const auto vi = static_cast<size_t>(ordered[i]);
          ADPROM_CHECK_MSG(DecodeEntry(vi, payloads[i]),
                           "corrupt ifds cache entry for " +
                               program_.functions()[vi].name);
          summary_hash_[vi] = CalleeVisibleHash(vi);
        }
        cache_->Count(&cache_stats_, ordered.size(), 0, 0);
        return;
      }
      cache_->Count(&cache_stats_, 0, ordered.size(), probe.invalidated);
    }

    constexpr int kMaxIterations = 1000;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      bool changed = false;
      for (int v : members) {
        const FnSummary before = summaries_[static_cast<size_t>(v)];
        SolveFunction(static_cast<size_t>(v));
        if (!(summaries_[static_cast<size_t>(v)] == before)) changed = true;
      }
      if (!changed) break;
      ADPROM_CHECK_MSG(iter + 1 < kMaxIterations,
                       "recursive taint summaries failed to converge");
    }
    // Feasibility is not conditioned through a cycle: recursive members
    // keep every plain fact (sound — the filter only ever discards).
    for (int v : members) {
      const size_t index = static_cast<size_t>(v);
      filter_skipped_[index] = 1;
      SealFacts(index);
      FinishObligations(index);
    }
    if (cache_ != nullptr) {
      for (size_t i = 0; i < ordered.size(); ++i) {
        const auto vi = static_cast<size_t>(ordered[i]);
        cache_->Store(config_fp_, program_.functions()[vi].name,
                      member_keys[i], EncodeEntry(vi));
        summary_hash_[vi] = CalleeVisibleHash(vi);
      }
    }
  }

  // -- incremental summary cache ----------------------------------------

  /// Chains one callee's caller-visible surface: name, parameter names
  /// (the caller's diagnostic observations key on them) and the hash of
  /// the state callers actually consume (summary + feasible obligations).
  void ChainCallee(Hasher* h, size_t callee) const {
    const prog::FunctionDef& fn = program_.functions()[callee];
    h->Str(fn.name);
    h->Size(fn.params.size());
    for (const std::string& param : fn.params) h->Str(param);
    h->U64(summary_hash_[callee]);
  }

  uint64_t EntryKey(size_t index,
                    const std::vector<std::vector<int>>& adjacency) const {
    Hasher h;
    h.U64(body_hash_[index]);
    h.U64(concat_hash_[index]);
    for (int c : adjacency[index]) {
      ChainCallee(&h, static_cast<size_t>(c));
    }
    return h.digest();
  }

  uint64_t ComponentKey(const std::vector<int>& ordered,
                        const std::vector<std::vector<int>>& adjacency,
                        const std::set<int>& member_set) const {
    Hasher h;
    h.U64(kRecursionMarker);
    for (int v : ordered) {
      const auto vi = static_cast<size_t>(v);
      h.Str(program_.functions()[vi].name);
      h.U64(body_hash_[vi]);
      h.U64(concat_hash_[vi]);
    }
    std::set<int> external;
    for (int v : ordered) {
      for (int c : adjacency[static_cast<size_t>(v)]) {
        if (!member_set.contains(c)) external.insert(c);
      }
    }
    for (int c : external) {
      ChainCallee(&h, static_cast<size_t>(c));
    }
    return h.digest();
  }

  void EncodeSummary(size_t index, BinaryWriter* w) const {
    const FnSummary& s = summaries_[index];
    Put(*w, s.ret_tokens);
    w->U64(s.param_sinks.size());
    for (const auto& [k, sites] : s.param_sinks) {
      w->U64(k);
      Put(*w, sites);
    }
  }

  void EncodeObligations(size_t index, BinaryWriter* w) const {
    w->U64(feasible_obligations_[index].size());
    for (const auto& [k, site] : feasible_obligations_[index]) {
      w->U64(k);
      w->I32(site);
    }
  }

  /// Value hash of the state callers read from this function: the
  /// converged summary and the feasibility-filtered obligations. A
  /// callee whose re-solve reproduces both leaves caller keys unchanged
  /// (early cutoff).
  uint64_t CalleeVisibleHash(size_t index) const {
    BinaryWriter w;
    EncodeSummary(index, &w);
    EncodeObligations(index, &w);
    return Hasher().Str(w.buffer()).digest();
  }

  std::string EncodeEntry(size_t index) const {
    BinaryWriter w;
    EncodeSummary(index, &w);
    w.U64(facts_[index].size());
    for (const SinkFact& f : facts_[index]) {
      w.I32(f.site);
      w.I32(f.token);
      w.I32(f.node);
      w.Str(f.via_callee);
      w.U64(f.via_param);
      Put(w, f.vars);
      w.B(f.from_gen);
      w.B(f.locally_feasible);
    }
    Put(w, concat_sinks_[index]);
    w.U64(births_[index].size());
    for (const auto& [token, list] : births_[index]) {
      w.I32(token);
      w.U64(list.size());
      for (const Birth& b : list) {
        w.I32(b.node);
        w.Str(b.call);
      }
    }
    w.U64(def_flows_[index].size());
    for (const auto& [node, flow] : def_flows_[index]) {
      w.I32(node);
      EncodeFlow(flow, &w);
    }
    Put(w, var_tokens_[index]);
    Put(w, param_vars_[index]);
    w.U64(summary_edges_[index]);
    w.U64(demanded_count_[index]);
    w.B(filter_skipped_[index] != 0);
    EncodeObligations(index, &w);
    return w.Take();
  }

  bool DecodeEntry(size_t index, const std::string& payload) {
    BinaryReader r(payload);
    FnSummary summary;
    summary.ret_tokens = Get<std::set<int>>(r);
    const uint64_t num_params = r.U64();
    for (uint64_t i = 0; i < num_params && r.ok(); ++i) {
      const auto k = static_cast<size_t>(r.U64());
      summary.param_sinks[k] = Get<std::set<int>>(r);
    }
    summaries_[index] = std::move(summary);
    const uint64_t num_facts = r.U64();
    for (uint64_t i = 0; i < num_facts && r.ok(); ++i) {
      SinkFact f;
      f.site = r.I32();
      f.token = r.I32();
      f.node = r.I32();
      f.via_callee = r.Str();
      f.via_param = static_cast<size_t>(r.U64());
      f.vars = Get<std::set<std::string>>(r);
      f.from_gen = r.B();
      f.locally_feasible = r.B();
      facts_[index].push_back(std::move(f));
    }
    concat_sinks_[index] = Get<std::map<int, std::set<int>>>(r);
    const uint64_t num_births = r.U64();
    for (uint64_t i = 0; i < num_births && r.ok(); ++i) {
      const int token = r.I32();
      const uint64_t n = r.U64();
      std::vector<Birth>& list = births_[index][token];
      for (uint64_t j = 0; j < n && r.ok(); ++j) {
        Birth b;
        b.node = r.I32();
        b.call = r.Str();
        list.push_back(std::move(b));
      }
    }
    const uint64_t num_flows = r.U64();
    for (uint64_t i = 0; i < num_flows && r.ok(); ++i) {
      const int node = r.I32();
      def_flows_[index][node] = DecodeFlow(&r);
    }
    var_tokens_[index] = Get<std::map<std::string, std::set<int>>>(r);
    param_vars_[index] =
        Get<std::map<std::string, std::map<std::string, std::set<int>>>>(r);
    summary_edges_[index] = static_cast<size_t>(r.U64());
    demanded_count_[index] = static_cast<size_t>(r.U64());
    filter_skipped_[index] = r.B() ? 1 : 0;
    const uint64_t num_obligations = r.U64();
    for (uint64_t i = 0; i < num_obligations && r.ok(); ++i) {
      const auto k = static_cast<size_t>(r.U64());
      const int site = r.I32();
      feasible_obligations_[index].insert({k, site});
    }
    return r.ok() && r.AtEnd();
  }

  /// Bakes each fact's conditioned-replay verdict into the fact itself,
  /// so downstream consumers (and warm runs) never need the digests.
  void SealFacts(size_t index) {
    for (SinkFact& fact : facts_[index]) {
      fact.locally_feasible = LocallyFeasible(index, fact);
    }
  }

  // -- feasibility tier -------------------------------------------------

  /// Runs one conditioned solve per token demanded by this function's
  /// sink facts and digests the per-node verdict inputs.
  void CondPass(size_t index) {
    std::set<int> demanded;
    for (const SinkFact& fact : facts_[index]) demanded.insert(fact.token);
    if (demanded.empty()) return;

    const FlowGraph& graph = graphs_[index];
    const prog::FunctionDef& fn = program_.functions()[index];
    for (int token : demanded) {
      std::set<int> birth_defs;
      std::set<int> carries;
      std::map<int, std::set<std::string>> contributors;
      for (const FlowNode& node : graph.nodes()) {
        if (node.op != FlowOp::kDef) continue;
        const auto& states =
            solved_[index].states[static_cast<size_t>(node.id)];
        if (!HasToken(states.out, node.def, token)) continue;
        carries.insert(node.id);
        auto flow = def_flows_[index].find(node.id);
        if (flow == def_flows_[index].end()) continue;
        for (const std::string& var : flow->second.vars) {
          if (HasToken(states.in, var, token)) {
            contributors[node.id].insert(var);
          }
        }
        if (flow->second.gens.contains(token)) birth_defs.insert(node.id);
      }
      std::optional<size_t> param_index;
      if (IsParamToken(token)) param_index = ParamIndexOf(token);

      CondClient client(graph, fn, param_index, birth_defs, carries,
                        contributors, returns_top_);
      const SolveResult<CondClient> solved =
          Solve(graph, Direction::kForward, &client);

      CondDigest digest;
      digest.in.reserve(solved.states.size());
      for (const auto& states : solved.states) {
        std::set<std::string> keys;
        for (const auto& [var, state] : states.in.carriers) {
          if (state.reachable) keys.insert(var);
        }
        digest.in.emplace_back(states.in.lambda.reachable, std::move(keys));
      }
      cond_[index][token] = std::move(digest);
    }
  }

  /// True when the conditioned solve kept a realizing carrier (or the
  /// birth point itself) alive at the fact's node.
  bool LocallyFeasible(size_t index, const SinkFact& fact) const {
    if (!options_.feasibility_filter || filter_skipped_[index]) return true;
    auto it = cond_[index].find(fact.token);
    if (it == cond_[index].end()) return true;
    const auto& [lambda, carriers] =
        it->second.in[static_cast<size_t>(fact.node)];
    if (fact.from_gen && lambda) return true;
    const auto& in = solved_[index].states[static_cast<size_t>(fact.node)].in;
    for (const std::string& var : fact.vars) {
      if (carriers.contains(var) && HasToken(in, var, fact.token)) {
        return true;
      }
    }
    return false;
  }

  bool FactFeasible(const SinkFact& fact) const {
    if (!fact.locally_feasible) return false;
    if (fact.via_callee.empty()) return true;
    const size_t callee = fn_index_.at(fact.via_callee);
    return feasible_obligations_[callee].contains(
        {fact.via_param, fact.site});
  }

  /// Projects the function's feasible parameter obligations — the
  /// filtered variant of its summary's param_sinks, consumed by callers.
  void FinishObligations(size_t index) {
    if (!options_.feasibility_filter || filter_skipped_[index]) {
      for (const auto& [k, sites] : summaries_[index].param_sinks) {
        for (int site : sites) {
          feasible_obligations_[index].insert({k, site});
        }
      }
      return;
    }
    for (const SinkFact& fact : facts_[index]) {
      if (!IsParamToken(fact.token)) continue;
      if (FactFeasible(fact)) {
        feasible_obligations_[index].insert(
            {ParamIndexOf(fact.token), fact.site});
      }
    }
  }

  // -- witness tier -----------------------------------------------------

  struct ProvKey {
    int node = -1;
    int token = 0;
    std::string var;

    bool operator<(const ProvKey& o) const {
      return std::tie(node, token, var) < std::tie(o.node, o.token, o.var);
    }
  };

  struct ProvEntry {
    int dist = 0;
    bool has_parent = false;
    ProvKey parent;
  };

  struct FnProv {
    bool built = false;
    std::map<ProvKey, ProvEntry> reach;
  };

  /// Breadth-first forward walk of the function's exploded graph — the
  /// states (node, var, token) with the token in the var's out-state —
  /// from the fact roots (entry parameters and token births). Restricted
  /// to the solved fixpoint, so every recorded edge is a CFG edge the
  /// fact really flows along, and BFS order makes reconstructed paths
  /// shortest.
  void EnsureProv(size_t index) {
    FnProv& prov = prov_[index];
    if (prov.built) return;
    prov.built = true;
    EnsureSolved(index);
    const FlowGraph& graph = graphs_[index];
    const prog::FunctionDef& fn = program_.functions()[index];
    const auto& states = solved_[index].states;

    std::deque<ProvKey> queue;
    auto seed = [&](const ProvKey& key) {
      if (prov.reach.emplace(key, ProvEntry{0, false, {}}).second) {
        queue.push_back(key);
      }
    };
    for (size_t k = 0; k < fn.params.size(); ++k) {
      seed({graph.entry_id(), ParamToken(k), fn.params[k]});
    }
    for (const auto& [token, births] : births_[index]) {
      for (const Birth& birth : births) {
        const FlowNode& node = graph.node(birth.node);
        if (node.op != FlowOp::kDef) continue;
        if (!HasToken(states[static_cast<size_t>(birth.node)].out, node.def,
                      token)) {
          continue;
        }
        seed({birth.node, token, node.def});
      }
    }

    auto extend = [&](const ProvKey& from, const ProvKey& to) {
      const int dist = prov.reach.at(from).dist + 1;
      if (prov.reach.emplace(to, ProvEntry{dist, true, from}).second) {
        queue.push_back(to);
      }
    };
    while (!queue.empty()) {
      const ProvKey cur = queue.front();
      queue.pop_front();
      for (int m : graph.node(cur.node).succs) {
        const FlowNode& node = graph.node(m);
        const auto& out = states[static_cast<size_t>(m)].out;
        if (node.op == FlowOp::kDef) {
          auto flow = def_flows_[index].find(m);
          const bool contributes =
              flow != def_flows_[index].end() &&
              flow->second.vars.contains(cur.var) &&
              HasToken(states[static_cast<size_t>(m)].in, cur.var,
                       cur.token);
          if (node.def != cur.var && HasToken(out, cur.var, cur.token)) {
            extend(cur, {m, cur.token, cur.var});
          }
          if (contributes && HasToken(out, node.def, cur.token)) {
            extend(cur, {m, cur.token, node.def});
          }
        } else if (HasToken(out, cur.var, cur.token)) {
          extend(cur, {m, cur.token, cur.var});
        }
      }
    }
  }

  /// Plain shortest CFG path entry -> target (inclusive), for segments
  /// whose fact is born inside the target node itself.
  std::vector<int> CfgPath(size_t index, int target) const {
    const FlowGraph& graph = graphs_[index];
    std::vector<int> parent(graph.size(), -2);
    std::deque<int> queue;
    parent[static_cast<size_t>(graph.entry_id())] = -1;
    queue.push_back(graph.entry_id());
    while (!queue.empty()) {
      const int n = queue.front();
      queue.pop_front();
      if (n == target) break;
      for (int m : graph.node(n).succs) {
        if (parent[static_cast<size_t>(m)] == -2) {
          parent[static_cast<size_t>(m)] = n;
          queue.push_back(m);
        }
      }
    }
    if (parent[static_cast<size_t>(target)] == -2) return {};
    std::vector<int> path;
    for (int n = target; n != -1; n = parent[static_cast<size_t>(n)]) {
      path.push_back(n);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  /// The node path (within `index`) from the function entry to — but not
  /// including — the fact's observing node, covering how the token got
  /// there.
  std::vector<int> SegmentNodes(size_t index, const SinkFact& fact) {
    EnsureProv(index);
    const FlowGraph& graph = graphs_[index];
    const auto& in = solved_[index].states[static_cast<size_t>(fact.node)].in;

    const ProvEntry* best = nullptr;
    ProvKey best_key;
    std::vector<int> preds = graph.node(fact.node).preds;
    std::sort(preds.begin(), preds.end());
    for (int p : preds) {
      for (const std::string& var : fact.vars) {
        if (!HasToken(in, var, fact.token)) continue;
        auto it = prov_[index].reach.find({p, fact.token, var});
        if (it == prov_[index].reach.end()) continue;
        if (best == nullptr || it->second.dist < best->dist) {
          best = &it->second;
          best_key = it->first;
        }
      }
    }
    if (best == nullptr) {
      // Born inside the observing node (or no recorded flow): the plain
      // shortest control path reaches it.
      std::vector<int> path = CfgPath(index, fact.node);
      if (!path.empty()) path.pop_back();
      return path;
    }

    std::vector<int> chain;
    ProvKey key = best_key;
    while (true) {
      chain.push_back(key.node);
      const ProvEntry& entry = prov_[index].reach.at(key);
      if (!entry.has_parent) break;
      key = entry.parent;
    }
    std::reverse(chain.begin(), chain.end());
    std::vector<int> path;
    if (chain.front() != graph.entry_id()) {
      path = CfgPath(index, chain.front());
      if (!path.empty()) path.pop_back();  // chain starts at the birth node
    }
    path.insert(path.end(), chain.begin(), chain.end());
    return path;
  }

  void RenderNodePath(size_t index, const std::vector<int>& nodes,
                      std::vector<WitnessStep>* steps) const {
    const FlowGraph& graph = graphs_[index];
    const std::string& name = program_.functions()[index].name;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const FlowNode& node = graph.node(nodes[i]);
      if (node.op == FlowOp::kJoin || node.op == FlowOp::kExit) continue;
      WitnessStep step;
      step.function = name;
      step.node_id = node.id;
      step.line = node.line;
      step.text = NodeText(node);
      if (node.op == FlowOp::kBranch && i + 1 < nodes.size() &&
          node.true_succ != node.false_succ) {
        if (nodes[i + 1] == node.true_succ) {
          step.is_branch = true;
          step.branch_taken = true;
        } else if (nodes[i + 1] == node.false_succ) {
          step.is_branch = true;
          step.branch_taken = false;
        }
      }
      steps->push_back(std::move(step));
    }
  }

  /// Full step list for a fact: the caller-side segment, then (for facts
  /// observed at a call into a summarized callee) the callee's own
  /// segment for the same obligation, spliced recursively down to the
  /// actual sink call.
  std::vector<WitnessStep> BuildSteps(
      size_t index, const SinkFact& fact, int depth,
      std::set<std::tuple<size_t, int, int>>* guard) {
    std::vector<WitnessStep> steps;
    if (depth > 32 || !guard->insert({index, fact.site, fact.token}).second) {
      return steps;
    }
    std::vector<int> nodes = SegmentNodes(index, fact);
    nodes.push_back(fact.node);
    RenderNodePath(index, nodes, &steps);
    if (!fact.via_callee.empty()) {
      auto callee = fn_index_.find(fact.via_callee);
      if (callee != fn_index_.end()) {
        const int needle = ParamToken(fact.via_param);
        for (const SinkFact& cf : facts_[callee->second]) {
          if (cf.site == fact.site && cf.token == needle) {
            std::vector<WitnessStep> inner =
                BuildSteps(callee->second, cf, depth + 1, guard);
            steps.insert(steps.end(), inner.begin(), inner.end());
            break;
          }
        }
      }
    }
    return steps;
  }

  /// Replays the rendered path through the interval engine and records
  /// the first branch whose condition the accumulated path state refutes.
  /// For a pruned fact the joined carrier state is empty at the sink, so
  /// the replay of any realizing path must hit a contradiction.
  void ReplayPrune(LeakWitness* w) const {
    absint::AbsState state;
    state.reachable = true;
    std::string current;
    for (const WitnessStep& step : w->steps) {
      if (step.function != current) {
        current = step.function;
        state = {};
        state.reachable = true;  // fresh frame: parameters unconstrained
      }
      const FlowGraph& graph = graphs_[fn_index_.at(step.function)];
      const FlowNode& node = graph.node(step.node_id);
      if (node.op == FlowOp::kDef) {
        absint::AbsValue value = EvalExpr(*node.expr, state, returns_top_);
        if (value.IsTop()) {
          state.vars.erase(node.def);
        } else {
          state.vars[node.def] = std::move(value);
        }
      } else if (node.op == FlowOp::kBranch && step.is_branch) {
        if (!AssumeCondition(*node.expr, step.branch_taken, &state,
                             returns_top_)) {
          w->pruned_line = node.line;
          w->pruned_condition = ExprToText(*node.expr);
          return;
        }
      }
    }
    if (!w->steps.empty()) w->pruned_line = w->steps.back().line;
    w->pruned_condition = "the joined path constraints are contradictory";
  }

  // -- assembly ---------------------------------------------------------

  IfdsResult Assemble() {
    IfdsResult out;
    const auto& fns = program_.functions();
    out.stats.functions = fns.size();

    for (size_t f = 0; f < fns.size(); ++f) {
      for (const auto& [var, tokens] : var_tokens_[f]) {
        if (tokens.empty()) continue;
        out.taint.tainted_vars[fns[f].name][var].insert(tokens.begin(),
                                                        tokens.end());
      }
      for (const auto& [callee, params] : param_vars_[f]) {
        for (const auto& [var, tokens] : params) {
          if (tokens.empty()) continue;
          out.taint.tainted_vars[callee][var].insert(tokens.begin(),
                                                     tokens.end());
        }
      }
      for (const auto& [site, builds] : concat_sinks_[f]) {
        out.sink_concat_builds[site].insert(builds.begin(), builds.end());
      }
      out.stats.summary_edges += summary_edges_[f];
      out.stats.demanded_solves += demanded_count_[f];
    }
    out.concat_sites = concat_sites_;
    out.cache_stats = cache_stats_;

    // A concrete (sink, source) fact can manifest in several functions
    // (the token is born wherever its defining call's summary is
    // instantiated); the fact is kept if *any* manifestation is feasible.
    struct Manifest {
      size_t fn = 0;
      size_t fact = 0;
      bool feasible = false;
    };
    std::map<std::pair<int, int>, std::vector<Manifest>> manifests;
    for (size_t f = 0; f < fns.size(); ++f) {
      for (size_t i = 0; i < facts_[f].size(); ++i) {
        const SinkFact& fact = facts_[f][i];
        if (IsParamToken(fact.token)) continue;
        manifests[{fact.site, fact.token}].push_back(
            {f, i, FactFeasible(fact)});
      }
    }
    out.stats.sink_facts = manifests.size();
    for (const auto& [key, ms] : manifests) {
      const bool feasible = std::any_of(
          ms.begin(), ms.end(), [](const Manifest& m) { return m.feasible; });
      if (feasible) {
        out.taint.labeled_sinks[key.first].insert(key.second);
      } else {
        out.pruned_sinks[key.first].insert(key.second);
        ++out.stats.pruned_facts;
      }
    }

    const std::map<int, const prog::Expr*> sites = IndexCallSites(program_);
    if (options_.column_taint) {
      std::set<int> tokens;
      for (const auto& [key, ms] : manifests) tokens.insert(key.second);
      for (int t : tokens) {
        auto it = sites.find(t);
        if (it == sites.end()) continue;
        std::vector<std::string> columns =
            SourceColumnsForCall(*it->second, options_.schemas);
        if (!columns.empty()) out.source_columns[t] = std::move(columns);
      }
      for (const auto& [site, srcs] : out.taint.labeled_sinks) {
        std::set<std::string> merged;
        for (int t : srcs) {
          auto it = out.source_columns.find(t);
          if (it != out.source_columns.end()) {
            merged.insert(it->second.begin(), it->second.end());
          }
        }
        if (!merged.empty()) {
          out.sink_columns[site].assign(merged.begin(), merged.end());
        }
      }
    }

    if (options_.witnesses) {
      for (const auto& [key, ms] : manifests) {
        const Manifest* pick = &ms.front();
        for (const Manifest& m : ms) {
          if (m.feasible) {
            pick = &m;
            break;
          }
        }
        LeakWitness w;
        w.sink_site = key.first;
        w.source_site = key.second;
        auto sink_it = sites.find(w.sink_site);
        if (sink_it != sites.end()) w.sink_call = sink_it->second->name;
        auto src_it = sites.find(w.source_site);
        if (src_it != sites.end()) w.source_call = src_it->second->name;
        auto col_it = out.source_columns.find(w.source_site);
        if (col_it != out.source_columns.end()) w.columns = col_it->second;
        std::set<std::tuple<size_t, int, int>> guard;
        w.steps = BuildSteps(pick->fn, facts_[pick->fn][pick->fact], 0,
                             &guard);
        w.feasible = pick->feasible;
        if (!w.feasible) ReplayPrune(&w);
        out.witnesses.push_back(std::move(w));
      }
      for (const FnProv& prov : prov_) {
        out.stats.exploded_nodes += prov.reach.size();
      }
    }
    return out;
  }

  const prog::Program& program_;
  const IfdsOptions& options_;
  std::map<std::string, size_t> fn_index_;
  std::map<std::string, absint::AbsValue> returns_top_;
  TokenEval eval_;
  std::vector<ConcatBuildSite> concat_sites_;
  std::map<const prog::Stmt*, int> concat_tokens_;
  std::vector<FlowGraph> graphs_;
  std::vector<FnSummary> summaries_;
  std::vector<SolveResult<IfdsClient>> solved_;
  std::vector<std::vector<SinkFact>> facts_;
  std::vector<std::map<int, std::set<int>>> concat_sinks_;
  std::vector<std::map<int, std::vector<Birth>>> births_;
  std::vector<std::map<int, Flow>> def_flows_;
  std::vector<std::map<std::string, std::set<int>>> var_tokens_;
  std::vector<std::map<std::string, std::map<std::string, std::set<int>>>>
      param_vars_;
  std::vector<size_t> summary_edges_;
  std::vector<std::map<int, CondDigest>> cond_;
  /// Conditioned solves run (or, warm, recorded) per function — kept
  /// apart from `cond_` so cache hits reproduce the cold stats.
  std::vector<size_t> demanded_count_;
  std::vector<std::set<std::pair<size_t, int>>> feasible_obligations_;
  /// vector<char>, not vector<bool>: slots are written concurrently for
  /// different functions under ParallelFor, and vector<bool> packs bits.
  std::vector<char> filter_skipped_;
  std::vector<char> solved_valid_;
  std::vector<FnProv> prov_;

  SummaryStore* cache_ = nullptr;
  uint64_t config_fp_ = 0;
  std::vector<uint64_t> body_hash_;
  std::vector<uint64_t> concat_hash_;
  /// Callee-visible value hashes (summary + obligations), written by the
  /// worker that owns the function and read by callers in later levels
  /// after the ParallelFor barrier.
  std::vector<uint64_t> summary_hash_;
  PassCacheStats cache_stats_;
};

}  // namespace

util::Result<IfdsResult> RunIfdsTaint(const prog::Program& program,
                                      const IfdsOptions& options) {
  if (!program.finalized()) {
    return util::Status::FailedPrecondition(
        "program must be finalized before IFDS taint analysis");
  }
  IfdsEngine engine(program, options);
  return engine.Run();
}

std::string FormatWitness(const LeakWitness& w) {
  std::string out = "witness " + w.source_call + "#" +
                    std::to_string(w.source_site) + " -> " + w.sink_call +
                    "#" + std::to_string(w.sink_site) +
                    (w.feasible ? " [feasible]" : " [infeasible]") + "\n";
  if (!w.columns.empty()) {
    out += "  columns:";
    for (const std::string& c : w.columns) out += " " + c;
    out += "\n";
  }
  for (const WitnessStep& s : w.steps) {
    out += "  " + s.function + ":" + std::to_string(s.line) + ": " + s.text;
    if (s.is_branch) {
      out += s.branch_taken ? "  [takes true]" : "  [takes false]";
    }
    out += "\n";
  }
  if (!w.feasible) {
    out += "  pruned: line " + std::to_string(w.pruned_line) + " refutes " +
           w.pruned_condition + "\n";
  }
  return out;
}

std::string WitnessToDot(const LeakWitness& w) {
  std::string out =
      "digraph witness {\n  rankdir=TB;\n"
      "  node [shape=box, fontname=\"monospace\"];\n"
      "  label=\"" +
      DotEscape(w.source_call) + " -> " + DotEscape(w.sink_call) +
      (w.feasible ? " (feasible)" : " (infeasible)") + "\";\n";
  bool pruned_marked = false;
  for (size_t i = 0; i < w.steps.size(); ++i) {
    const WitnessStep& s = w.steps[i];
    std::string label = s.function + ":" + std::to_string(s.line) + "\\n" +
                        DotEscape(s.text);
    std::string attrs;
    if (!w.feasible && !pruned_marked && s.is_branch &&
        s.line == w.pruned_line) {
      label += "\\nREFUTED: " + DotEscape(w.pruned_condition);
      attrs = ", color=red, penwidth=2";
      pruned_marked = true;
    } else if (i + 1 == w.steps.size()) {
      attrs = ", style=filled, fillcolor=lightgrey";
    }
    out += "  n" + std::to_string(i) + " [label=\"" + label + "\"" + attrs +
           "];\n";
  }
  for (size_t i = 0; i + 1 < w.steps.size(); ++i) {
    out += "  n" + std::to_string(i) + " -> n" + std::to_string(i + 1);
    if (w.steps[i].is_branch) {
      out += std::string(" [label=\"") +
             (w.steps[i].branch_taken ? "true" : "false") + "\"]";
    }
    out += ";\n";
  }
  return out + "}\n";
}

std::vector<std::string> SourceColumnsForCall(
    const prog::Expr& call, const db::SchemaCatalog& schemas) {
  if (call.kind != prog::ExprKind::kCall || call.name != "db_query") {
    return {};
  }
  std::string text;
  CollectLiteralText(call, &text);
  const std::string lower = ToLower(text);
  const size_t sel = lower.find("select");
  if (sel == std::string::npos) return {};
  const size_t from = lower.find("from", sel + 6);
  if (from == std::string::npos) return {};

  std::string table;
  size_t pos = from + 4;
  while (pos < lower.size() &&
         std::isspace(static_cast<unsigned char>(lower[pos]))) {
    ++pos;
  }
  while (pos < lower.size() &&
         (std::isalnum(static_cast<unsigned char>(lower[pos])) ||
          lower[pos] == '_')) {
    table += lower[pos++];
  }
  if (table.empty()) return {};

  std::set<std::string> columns;
  bool star = false;
  const std::string list = text.substr(sel + 6, from - (sel + 6));
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const std::string item =
        Trim(comma == std::string::npos ? list.substr(start)
                                        : list.substr(start, comma - start));
    if (item == "*") {
      star = true;
    } else if (!item.empty()) {
      columns.insert(table + "." + ToLower(item));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (star) {
    auto schema = schemas.find(table);
    if (schema == schemas.end()) {
      columns.insert(table + ".*");
    } else {
      for (const db::Column& c : schema->second.columns()) {
        columns.insert(table + "." + ToLower(c.name));
      }
    }
  }
  return {columns.begin(), columns.end()};
}

}  // namespace adprom::analysis::dataflow
