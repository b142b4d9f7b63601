#include "analysis/absint.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/error.hpp"

namespace tunio::analysis {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;

namespace {

constexpr std::int64_t kMin = Interval::kMin;
constexpr std::int64_t kMax = Interval::kMax;

/// Loop-head visits before widening kicks in.
constexpr int kWidenAfter = 3;
/// Transfer budget per function context; exceeding it aborts the
/// analysis (AnalysisLimit) rather than returning unsound state.
constexpr int kMaxTransfers = 50000;
/// Depth budget for the interprocedural call chain.
constexpr int kMaxCallDepth = 16;
/// Total memoized contexts across the program; once exceeded, further
/// calls reuse an all-top/all-tainted context per function (sound but
/// imprecise; sets `approximate()`).
constexpr int kMaxContexts = 128;

bool representable(__int128 v) {
  return v > static_cast<__int128>(kMin) && v < static_cast<__int128>(kMax);
}

/// Builds an interval from exact __int128 bounds: representable bounds
/// are kept, anything that could wrap in concrete int64 arithmetic
/// widens the whole result to top.
Interval from_exact(__int128 lo, __int128 hi) {
  if (!representable(lo) || !representable(hi)) return Interval::top();
  return Interval::range(static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi));
}

__int128 w(std::int64_t v) { return static_cast<__int128>(v); }

}  // namespace

std::string Interval::str() const {
  std::ostringstream out;
  out << "[";
  if (lo == kMin) {
    out << "-inf";
  } else {
    out << lo;
  }
  out << ", ";
  if (hi == kMax) {
    out << "+inf";
  } else {
    out << hi;
  }
  out << "]";
  return out.str();
}

Interval abs_add(const Interval& a, const Interval& b) {
  return from_exact(w(a.lo) + w(b.lo), w(a.hi) + w(b.hi));
}

Interval abs_sub(const Interval& a, const Interval& b) {
  return from_exact(w(a.lo) - w(b.hi), w(a.hi) - w(b.lo));
}

Interval abs_mul(const Interval& a, const Interval& b) {
  const __int128 c[4] = {w(a.lo) * w(b.lo), w(a.lo) * w(b.hi),
                         w(a.hi) * w(b.lo), w(a.hi) * w(b.hi)};
  return from_exact(std::min({c[0], c[1], c[2], c[3]}),
                    std::max({c[0], c[1], c[2], c[3]}));
}

Interval abs_div(const Interval& a, const Interval& b) {
  // Division by a range containing zero traps at runtime; no constraint
  // on the surviving executions is worth modeling here.
  if (b.lo <= 0 && b.hi >= 0) return Interval::top();
  const __int128 c[4] = {w(a.lo) / w(b.lo), w(a.lo) / w(b.hi),
                         w(a.hi) / w(b.lo), w(a.hi) / w(b.hi)};
  return from_exact(std::min({c[0], c[1], c[2], c[3]}),
                    std::max({c[0], c[1], c[2], c[3]}));
}

Interval abs_mod(const Interval& a, const Interval& b) {
  if (b.lo <= 0) return Interval::top();  // nonpositive divisors possible
  // Identity case: a already inside [0, min divisor).
  if (a.lo >= 0 && a.hi < b.lo) return a;
  const std::int64_t m = b.hi == kMax ? kMax : b.hi - 1;
  return Interval::range(a.lo >= 0 ? 0 : (m == kMax ? kMin : -m), m);
}

Interval abs_neg(const Interval& a) {
  return from_exact(-w(a.hi), -w(a.lo));
}

Interval abs_min(const Interval& a, const Interval& b) {
  return Interval::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
}

Interval abs_max(const Interval& a, const Interval& b) {
  return Interval::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
}

Interval count_clamp(const Interval& a) {
  // A possibly-negative size is cast to a huge uint64 by the
  // interpreter: only "anything nonnegative" covers that.
  if (a.lo < 0) return Interval::range(0, kMax);
  return a;
}

Interval count_add(const Interval& a, const Interval& b) {
  const Interval ca = count_clamp(a);
  const Interval cb = count_clamp(b);
  const __int128 lo = w(ca.lo) + w(cb.lo);
  const __int128 hi = w(ca.hi) + w(cb.hi);
  return Interval::range(
      representable(lo) ? static_cast<std::int64_t>(lo) : kMax,
      representable(hi) ? static_cast<std::int64_t>(hi) : kMax);
}

Interval count_mul(const Interval& a, const Interval& b) {
  const Interval ca = count_clamp(a);
  const Interval cb = count_clamp(b);
  const __int128 lo = w(ca.lo) * w(cb.lo);
  const __int128 hi = w(ca.hi) * w(cb.hi);
  return Interval::range(
      representable(lo) ? static_cast<std::int64_t>(lo) : kMax,
      representable(hi) ? static_cast<std::int64_t>(hi) : kMax);
}

AbsValue AbsValue::join(const AbsValue& o) const {
  AbsValue out;
  out.range = range.join(o.range);
  out.tainted = tainted || o.tainted;
  out.origins = origins;
  out.origins.insert(o.origins.begin(), o.origins.end());
  if (out.origins.size() > kMaxOrigins) out.origins.clear();  // -> unknown
  return out;
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

struct AbstractInterpreter::Solver {
  const FunctionCfg* cfg = nullptr;
  std::vector<NodeState> states;
  std::deque<int> worklist;
  std::vector<char> queued;
  /// Statement whose transfer is currently running (the call site for
  /// user-function calls evaluated inside it).
  const minic::Stmt* current_stmt = nullptr;
  /// Guards against re-entering control_taint while evaluating an
  /// ancestor condition that itself contains a user call.
  bool in_ctl_walk = false;

  void push(int node) {
    if (queued[node]) return;
    queued[node] = 1;
    worklist.push_back(node);
  }
  int pop() {
    const int node = worklist.front();
    worklist.pop_front();
    queued[node] = 0;
    return node;
  }
};

namespace {

AbsEnv join_envs(const AbsEnv& a, const AbsEnv& b) {
  AbsEnv out = a;
  for (const auto& [name, value] : b) {
    auto it = out.find(name);
    if (it == out.end()) {
      out.emplace(name, value);
    } else {
      it->second = it->second.join(value);
    }
  }
  return out;
}

AbsEnv widen_envs(const AbsEnv& prev, const AbsEnv& next) {
  AbsEnv out = next;
  for (auto& [name, value] : out) {
    auto it = prev.find(name);
    if (it != prev.end()) value.range = it->second.range.widen(value.range);
  }
  return out;
}

bool is_loop(const Stmt* stmt) {
  return stmt != nullptr &&
         (stmt->kind == StmtKind::kFor || stmt->kind == StmtKind::kWhile);
}

/// Exact ceiling division for positive operands.
std::int64_t ceil_div_128(__int128 span, __int128 step) {
  const __int128 t = (span + step - 1) / step;
  if (t >= static_cast<__int128>(kMax)) return kMax;
  return static_cast<std::int64_t>(t);
}

}  // namespace

AbstractInterpreter::AbstractInterpreter(const Program& program,
                                         Interval mpi_ranks)
    : program_(&program), mpi_ranks_(mpi_ranks), index_(program) {
  for (const Function& fn : program.functions) {
    cfgs_.emplace(&fn, build_cfg(fn));
  }
}

const FunctionContext& AbstractInterpreter::analyze_main() {
  if (main_ != nullptr) return *main_;
  const Function* fn = program_->find("main");
  TUNIO_CHECK_MSG(fn != nullptr, "absint: program has no main function");
  main_ = get_context(*fn, {}, /*control_tainted=*/false, /*depth=*/0);
  return *main_;
}

Interval AbstractInterpreter::elem_size_of(const AbsValue& handle) const {
  if (handle.origins.empty()) return Interval::top();
  Interval out;
  bool first = true;
  for (const Expr* site : handle.origins) {
    const auto it = elem_sizes_.find(site);
    const Interval e = it == elem_sizes_.end() ? Interval::top() : it->second;
    out = first ? e : out.join(e);
    first = false;
  }
  return out;
}

AbsValue AbstractInterpreter::eval_at(const FunctionContext& ctx, int stmt_id,
                                      const Expr& expr) const {
  const auto it = ctx.stmt_in.find(stmt_id);
  if (it == ctx.stmt_in.end()) return AbsValue::top_tainted();
  // Read-only mode (null solver) mutates nothing; see eval().
  auto* self = const_cast<AbstractInterpreter*>(this);
  return self->eval(expr, it->second, const_cast<FunctionContext*>(&ctx),
                    nullptr, kMaxCallDepth);
}

const FunctionContext* AbstractInterpreter::get_context(
    const Function& fn, std::vector<AbsValue> args, bool control_tainted,
    int depth) {
  if (in_progress_.count(&fn) > 0) {
    throw AnalysisLimit("absint: recursion involving function '" + fn.name +
                        "'");
  }
  if (depth >= kMaxCallDepth) {
    throw AnalysisLimit("absint: call depth limit (" +
                        std::to_string(kMaxCallDepth) +
                        ") exceeded at '" + fn.name + "'");
  }

  std::ostringstream key;
  key << static_cast<const void*>(&fn) << "|" << control_tainted;
  for (const AbsValue& arg : args) {
    key << "|" << arg.range.lo << ":" << arg.range.hi << ":" << arg.tainted;
    for (const Expr* origin : arg.origins) {
      key << ":" << static_cast<const void*>(origin);
    }
  }
  const std::string k = key.str();
  const auto it = memo_.find(k);
  if (it != memo_.end()) return it->second;

  if (static_cast<int>(contexts_.size()) >= kMaxContexts) {
    // Context budget exhausted: fall back to one all-top, all-tainted
    // context per function — a superset of every possible call, so the
    // results stay sound while precision degrades.
    approximate_ = true;
    const std::string overflow_key =
        "overflow|" + std::string(fn.name) + "|" +
        std::to_string(reinterpret_cast<std::uintptr_t>(&fn));
    const auto oit = memo_.find(overflow_key);
    if (oit != memo_.end()) return oit->second;
    FunctionContext& ctx = contexts_.emplace_back();
    ctx.function = &fn;
    ctx.args.assign(fn.params.size(), AbsValue::top_tainted());
    ctx.control_tainted = true;
    memo_[overflow_key] = &ctx;
    in_progress_.insert(&fn);
    try {
      solve(ctx, depth);
    } catch (...) {
      in_progress_.erase(&fn);
      throw;
    }
    in_progress_.erase(&fn);
    return &ctx;
  }

  FunctionContext& ctx = contexts_.emplace_back();
  ctx.function = &fn;
  ctx.args = std::move(args);
  ctx.control_tainted = control_tainted;
  memo_[k] = &ctx;
  in_progress_.insert(&fn);
  try {
    solve(ctx, depth);
  } catch (...) {
    in_progress_.erase(&fn);
    throw;
  }
  in_progress_.erase(&fn);
  return &ctx;
}

bool AbstractInterpreter::control_taint(FunctionContext& ctx, Solver& solver,
                                        const Stmt& stmt, int depth) {
  if (ctx.control_tainted) return true;
  const bool was_walking = solver.in_ctl_walk;
  solver.in_ctl_walk = true;
  bool tainted = false;
  const Stmt* child = &stmt;
  const StmtRecord* rec = &index_.record(stmt.id);
  while (!tainted && rec->parent != nullptr) {
    const Stmt* parent = rec->parent;
    const bool via_for_init = parent->kind == StmtKind::kFor &&
                              parent->init != nullptr &&
                              parent->init.get() == child;
    const bool branching = parent->kind == StmtKind::kIf ||
                           parent->kind == StmtKind::kWhile ||
                           (parent->kind == StmtKind::kFor && !via_for_init);
    if (branching && parent->cond != nullptr) {
      const int node = solver.cfg->node_of(parent->id);
      if (node >= 0 && solver.states[node].reached) {
        const AbsValue cond = eval(*parent->cond, solver.states[node].in, &ctx,
                                   &solver, depth);
        tainted = cond.tainted;
      }
    }
    child = parent;
    rec = &index_.record(parent->id);
  }
  solver.in_ctl_walk = was_walking;
  return tainted;
}

AbsValue AbstractInterpreter::eval_call(const Expr& call, const AbsEnv& env,
                                        FunctionContext* ctx, Solver* solver,
                                        int depth) {
  const std::string& name = call.text;

  std::vector<AbsValue> args;
  args.reserve(call.children.size());
  for (const minic::ExprPtr& child : call.children) {
    args.push_back(eval(*child, env, ctx, solver, depth));
  }
  bool arg_taint = false;
  for (const AbsValue& a : args) arg_taint = arg_taint || a.tainted;

  // User-defined functions.
  if (const Function* fn = program_->find(name)) {
    if (solver == nullptr) {
      const auto it = ctx->call_targets.find(&call);
      if (it == ctx->call_targets.end()) return AbsValue::top_tainted();
      return it->second->result;
    }
    bool ctl = ctx->control_tainted;
    if (!ctl && !solver->in_ctl_walk && solver->current_stmt != nullptr) {
      ctl = control_taint(*ctx, *solver, *solver->current_stmt, depth);
    }
    const FunctionContext* callee = get_context(*fn, args, ctl, depth + 1);
    ctx->call_targets[&call] = callee;
    return callee->result;
  }

  // Builtins.
  if (name.rfind("tuned_", 0) == 0) return AbsValue::top_tainted();
  if (name == "mpi_size") {
    AbsValue v;
    v.range = mpi_ranks_;
    return v;
  }
  if (name == "min" || name == "max") {
    AbsValue v;
    if (args.size() == 2) {
      v.range = name == "min" ? abs_min(args[0].range, args[1].range)
                              : abs_max(args[0].range, args[1].range);
      v.tainted = arg_taint;
    }
    return v;
  }
  if (name == "reduced_iters") {
    AbsValue v;
    if (args.size() == 2) {
      const Interval divisor =
          abs_max(args[1].range, Interval::constant(1));
      v.range = abs_max(abs_div(args[0].range, divisor),
                        Interval::constant(1));
      v.tainted = arg_taint;
    }
    return v;
  }
  // Argument intervals recorded per call site, joined over every solver
  // evaluation (eval_at's read-only re-evaluations add nothing).
  const auto record = [&](std::map<const Expr*, Interval>& sites,
                          const Interval& value) {
    if (solver == nullptr) return;
    const auto [it, fresh] = sites.try_emplace(&call, value);
    if (!fresh) it->second = it->second.join(value);
  };
  if (name == "h5dcreate") {
    AbsValue v;
    v.tainted = arg_taint;
    v.origins.insert(&call);
    if (args.size() >= 3) record(elem_sizes_, args[2].range);
    return v;
  }
  if (name == "h5set_chunking" && !args.empty()) {
    record(chunk_elems_, args[0].range);
  }
  if (name == "h5fcreate" || name == "h5fopen" || name == "h5dopen") {
    AbsValue v;  // handle index: top, unknown provenance
    v.tainted = arg_taint;
    return v;
  }
  if (name == "h5fclose" || name == "h5dclose" || name == "h5set_chunking" ||
      name == "h5dwrite_all" || name == "h5dread_all" ||
      name == "h5dwrite_strided" || name == "h5dread_strided" ||
      name == "fprintf_log" || name == "compute" || name == "mpi_barrier") {
    AbsValue v = AbsValue::constant(0);  // the interpreter returns int64{0}
    v.tainted = arg_taint;
    return v;
  }
  // Unknown callee: the interpreter would trap; no value constraints.
  return AbsValue::top();
}

AbsValue AbstractInterpreter::eval(const Expr& expr, const AbsEnv& env,
                                   FunctionContext* ctx, Solver* solver,
                                   int depth) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      return AbsValue::constant(expr.int_value);
    case ExprKind::kFloatLit:
    case ExprKind::kStringLit:
      return AbsValue::top();  // non-integer: no interval constraints
    case ExprKind::kVar: {
      const auto it = env.find(expr.text);
      if (it == env.end()) return AbsValue::top();
      return it->second;
    }
    case ExprKind::kUnary: {
      const AbsValue v = eval(*expr.children[0], env, ctx, solver, depth);
      AbsValue out;
      out.tainted = v.tainted;
      if (expr.text == "-") {
        out.range = abs_neg(v.range);
      } else if (expr.text == "!") {
        out.range = v.range.is_zero()        ? Interval::constant(1)
                    : v.range.excludes_zero() ? Interval::constant(0)
                                              : Interval::range(0, 1);
      }
      return out;
    }
    case ExprKind::kBinary: {
      const AbsValue a = eval(*expr.children[0], env, ctx, solver, depth);
      const AbsValue b = eval(*expr.children[1], env, ctx, solver, depth);
      AbsValue out;
      out.tainted = a.tainted || b.tainted;
      const std::string& op = expr.text;
      if (op == "+") {
        out.range = abs_add(a.range, b.range);
      } else if (op == "-") {
        out.range = abs_sub(a.range, b.range);
      } else if (op == "*") {
        out.range = abs_mul(a.range, b.range);
      } else if (op == "/") {
        out.range = abs_div(a.range, b.range);
      } else if (op == "%") {
        out.range = abs_mod(a.range, b.range);
      } else if (op == "<") {
        out.range = a.range.hi < b.range.lo    ? Interval::constant(1)
                    : a.range.lo >= b.range.hi ? Interval::constant(0)
                                               : Interval::range(0, 1);
      } else if (op == "<=") {
        out.range = a.range.hi <= b.range.lo  ? Interval::constant(1)
                    : a.range.lo > b.range.hi ? Interval::constant(0)
                                              : Interval::range(0, 1);
      } else if (op == ">") {
        out.range = a.range.lo > b.range.hi    ? Interval::constant(1)
                    : a.range.hi <= b.range.lo ? Interval::constant(0)
                                               : Interval::range(0, 1);
      } else if (op == ">=") {
        out.range = a.range.lo >= b.range.hi  ? Interval::constant(1)
                    : a.range.hi < b.range.lo ? Interval::constant(0)
                                              : Interval::range(0, 1);
      } else if (op == "==") {
        out.range = (a.range.is_constant() && a.range == b.range)
                        ? Interval::constant(1)
                    : (a.range.hi < b.range.lo || a.range.lo > b.range.hi)
                        ? Interval::constant(0)
                        : Interval::range(0, 1);
      } else if (op == "!=") {
        out.range = (a.range.is_constant() && a.range == b.range)
                        ? Interval::constant(0)
                    : (a.range.hi < b.range.lo || a.range.lo > b.range.hi)
                        ? Interval::constant(1)
                        : Interval::range(0, 1);
      } else if (op == "&&") {
        out.range = (a.range.is_zero() || b.range.is_zero())
                        ? Interval::constant(0)
                    : (a.range.excludes_zero() && b.range.excludes_zero())
                        ? Interval::constant(1)
                        : Interval::range(0, 1);
      } else if (op == "||") {
        out.range = (a.range.excludes_zero() || b.range.excludes_zero())
                        ? Interval::constant(1)
                    : (a.range.is_zero() && b.range.is_zero())
                        ? Interval::constant(0)
                        : Interval::range(0, 1);
      }
      return out;
    }
    case ExprKind::kCall:
      return eval_call(expr, env, ctx, solver, depth);
  }
  return AbsValue::top();
}

Interval AbstractInterpreter::trip_count(FunctionContext& ctx, Solver& solver,
                                         const Stmt& loop, int depth) {
  const int head = solver.cfg->node_of(loop.id);
  if (head < 0 || !solver.states[head].reached) return Interval::range(0, 0);
  const AbsEnv& head_env = solver.states[head].in;

  if (loop.kind == StmtKind::kWhile) {
    if (loop.cond == nullptr) return Interval::range(1, kMax);
    const AbsValue cond = eval(*loop.cond, head_env, &ctx, &solver, depth);
    if (cond.range.is_zero()) return Interval::range(0, 0);
    return Interval::range(cond.range.excludes_zero() ? 1 : 0, kMax);
  }

  // for-loop: match `for (v = a; v OP b; v = v ± c)`.
  const Interval fallback = Interval::range(0, kMax);
  if (loop.cond == nullptr) return Interval::range(1, kMax);
  const AbsValue cond_val = eval(*loop.cond, head_env, &ctx, &solver, depth);
  if (cond_val.range.is_zero()) return Interval::range(0, 0);
  if (loop.init == nullptr || loop.update == nullptr) return fallback;
  const std::string var = name_defined(*loop.init);
  if (var.empty() || loop.init->value == nullptr) return fallback;
  if (name_defined(*loop.update) != var) return fallback;

  // Initial value, evaluated *before* the init statement runs.
  const int init_node = solver.cfg->node_of(loop.init->id);
  if (init_node < 0 || !solver.states[init_node].reached) return fallback;
  const Interval a0 =
      eval(*loop.init->value, solver.states[init_node].in, &ctx, &solver,
           depth)
          .range;

  // Normalize the condition to `var OP bound`.
  if (loop.cond->kind != ExprKind::kBinary) return fallback;
  std::string op = loop.cond->text;
  const Expr* lhs = loop.cond->children[0].get();
  const Expr* rhs = loop.cond->children[1].get();
  if (lhs->kind != ExprKind::kVar || lhs->text != var) {
    if (rhs->kind != ExprKind::kVar || rhs->text != var) return fallback;
    std::swap(lhs, rhs);
    if (op == "<") {
      op = ">";
    } else if (op == "<=") {
      op = ">=";
    } else if (op == ">") {
      op = "<";
    } else if (op == ">=") {
      op = "<=";
    }
  }
  const Interval bound = eval(*rhs, head_env, &ctx, &solver, depth).range;

  // Step: `var = var + c`, `var = c + var`, or `var = var - c`.
  const Expr* upd = loop.update->value.get();
  if (upd == nullptr || upd->kind != ExprKind::kBinary) return fallback;
  const bool plus = upd->text == "+";
  const bool minus = upd->text == "-";
  if (!plus && !minus) return fallback;
  const Expr* l = upd->children[0].get();
  const Expr* r = upd->children[1].get();
  const Expr* step_expr = nullptr;
  if (l->kind == ExprKind::kVar && l->text == var) {
    step_expr = r;
  } else if (plus && r->kind == ExprKind::kVar && r->text == var) {
    step_expr = l;
  } else {
    return fallback;
  }
  const int upd_node = solver.cfg->node_of(loop.update->id);
  if (upd_node < 0 || !solver.states[upd_node].reached) return fallback;
  Interval step =
      eval(*step_expr, solver.states[upd_node].in, &ctx, &solver, depth).range;
  if (minus) step = abs_neg(step);

  const auto bounded_trips = [](__int128 span_lo, __int128 span_hi,
                                const Interval& inc) -> Interval {
    // inc.lo > 0 guaranteed by the caller (strictly advancing).
    std::int64_t lo = 0;
    if (span_lo > 0) lo = ceil_div_128(span_lo, w(inc.hi));
    std::int64_t hi = 0;
    if (span_hi > 0) {
      hi = span_hi >= static_cast<__int128>(kMax)
               ? kMax
               : ceil_div_128(span_hi, w(inc.lo));
    }
    return Interval::range(lo, hi);
  };

  if ((op == "<" || op == "<=") && step.lo > 0) {
    const __int128 extra = op == "<=" ? 1 : 0;
    // Unknown endpoints leave the corresponding span unbounded.
    const __int128 span_hi = (bound.hi == kMax || a0.lo == kMin)
                                 ? static_cast<__int128>(kMax)
                                 : w(bound.hi) - w(a0.lo) + extra;
    const __int128 span_lo = (bound.lo == kMin || a0.hi == kMax)
                                 ? 0
                                 : w(bound.lo) - w(a0.hi) + extra;
    return bounded_trips(span_lo, span_hi, step);
  }
  if ((op == ">" || op == ">=") && step.hi < 0) {
    const Interval inc = abs_neg(step);
    const __int128 extra = op == ">=" ? 1 : 0;
    const __int128 span_hi = (a0.hi == kMax || bound.lo == kMin)
                                 ? static_cast<__int128>(kMax)
                                 : w(a0.hi) - w(bound.lo) + extra;
    const __int128 span_lo = (a0.lo == kMin || bound.hi == kMax)
                                 ? 0
                                 : w(a0.lo) - w(bound.hi) + extra;
    return bounded_trips(span_lo, span_hi, inc);
  }
  if (op == "!=" && step.is_constant() && step.lo == 1 && a0.hi != kMax &&
      bound.lo != kMin && a0.hi <= bound.lo) {
    // `for (v = a; v != b; v = v + 1)` with a <= b: exactly b - a trips.
    return from_exact(w(bound.lo) - w(a0.hi), w(bound.hi) - w(a0.lo));
  }
  return fallback;
}

void AbstractInterpreter::solve(FunctionContext& ctx, int depth) {
  const FunctionCfg& cfg = cfgs_.at(ctx.function);
  Solver solver;
  solver.cfg = &cfg;
  solver.states.resize(cfg.num_nodes());
  solver.queued.assign(cfg.num_nodes(), 0);

  // Entry environment: the abstract arguments, by parameter name.
  AbsEnv entry;
  for (std::size_t i = 0; i < ctx.function->params.size(); ++i) {
    const AbsValue v = i < ctx.args.size() ? ctx.args[i] : AbsValue::top();
    entry[ctx.function->params[i].second] = v;
  }
  solver.states[FunctionCfg::kEntry].reached = true;
  solver.states[FunctionCfg::kEntry].in = std::move(entry);
  solver.push(FunctionCfg::kEntry);

  std::optional<AbsValue> result;

  const auto transfer = [&](int node) -> AbsEnv {
    NodeState& state = solver.states[node];
    const Stmt* stmt = cfg.stmt_of(node);
    AbsEnv out = state.in;
    if (stmt == nullptr) {
      state.ctl_used = ctx.control_tainted;
      return out;
    }
    solver.current_stmt = stmt;
    const bool ctl = control_taint(ctx, solver, *stmt, depth);
    state.ctl_used = ctl;
    switch (stmt->kind) {
      case StmtKind::kDecl: {
        AbsValue v = stmt->value != nullptr
                         ? eval(*stmt->value, state.in, &ctx, &solver, depth)
                         : (stmt->decl_type == "int"
                                ? AbsValue::constant(0)
                                : AbsValue::top());
        v.tainted = v.tainted || ctl;
        out[stmt->name] = std::move(v);
        break;
      }
      case StmtKind::kAssign: {
        AbsValue v = stmt->value != nullptr
                         ? eval(*stmt->value, state.in, &ctx, &solver, depth)
                         : AbsValue::top();
        v.tainted = v.tainted || ctl;
        out[stmt->name] = std::move(v);
        break;
      }
      case StmtKind::kExprStmt:
        if (stmt->value != nullptr) {
          eval(*stmt->value, state.in, &ctx, &solver, depth);
        }
        break;
      case StmtKind::kReturn: {
        AbsValue v = stmt->value != nullptr
                         ? eval(*stmt->value, state.in, &ctx, &solver, depth)
                         : AbsValue::top();
        v.tainted = v.tainted || ctl;
        result = result ? result->join(v) : v;
        if (ctl) ctx.has_tainted_return = true;
        break;
      }
      case StmtKind::kFor:
      case StmtKind::kWhile:
      case StmtKind::kIf:
        if (stmt->cond != nullptr) {
          eval(*stmt->cond, state.in, &ctx, &solver, depth);
        }
        break;
      case StmtKind::kBlock:
        break;
    }
    solver.current_stmt = nullptr;
    return out;
  };

  // Inner worklist to a fixpoint; outer loop re-checks implicit-flow
  // taint against the final environments and re-runs until that is
  // stable too (taint is monotone, so this terminates quickly).
  while (true) {
    while (!solver.worklist.empty()) {
      const int node = solver.pop();
      if (++ctx.transfers > kMaxTransfers) {
        throw AnalysisLimit("absint: transfer budget exceeded in '" +
                            ctx.function->name + "'");
      }
      ++total_transfers_;
      ++solver.states[node].visits;
      const AbsEnv out = transfer(node);
      for (const int succ : cfg.successors(node)) {
        NodeState& target = solver.states[succ];
        if (!target.reached) {
          target.reached = true;
          target.in = out;
          solver.push(succ);
          continue;
        }
        AbsEnv joined = join_envs(target.in, out);
        if (is_loop(cfg.stmt_of(succ)) &&
            target.visits >= kWidenAfter) {
          joined = widen_envs(target.in, joined);
        }
        if (joined != target.in) {
          target.in = std::move(joined);
          solver.push(succ);
        }
      }
    }
    // Re-stabilize implicit-flow taint: a condition may have become
    // tainted after its controlled statements last ran.
    bool changed = false;
    for (int node = 0; node < cfg.num_nodes(); ++node) {
      NodeState& state = solver.states[node];
      if (!state.reached) continue;
      const Stmt* stmt = cfg.stmt_of(node);
      if (stmt == nullptr) continue;
      solver.current_stmt = stmt;
      const bool ctl = control_taint(ctx, solver, *stmt, depth);
      solver.current_stmt = nullptr;
      if (ctl != state.ctl_used) {
        solver.push(node);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Snapshot post-fixpoint facts.
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const NodeState& state = solver.states[node];
    if (!state.reached) continue;
    const Stmt* stmt = cfg.stmt_of(node);
    if (stmt == nullptr) continue;
    ctx.stmt_in[stmt->id] = state.in;
    if (state.ctl_used) ctx.tainted_control.insert(stmt->id);
    if (is_loop(stmt)) {
      ctx.loop_trips[stmt->id] = trip_count(ctx, solver, *stmt, depth);
    }
  }
  // A reachable exit fed by a non-return node means the function can
  // fall off the end; its value is then unconstrained.
  if (result) {
    for (const int pred : cfg.predecessors(FunctionCfg::kExit)) {
      const Stmt* stmt = cfg.stmt_of(pred);
      if (solver.states[pred].reached &&
          (stmt == nullptr || stmt->kind != StmtKind::kReturn)) {
        AbsValue top = AbsValue::top();
        top.tainted = result->tainted;
        result = result->join(top);
        break;
      }
    }
  }
  ctx.result = result.value_or(AbsValue::top());
}

}  // namespace tunio::analysis
