// Abstract interpretation over the mini-C AST: a forward worklist solver
// on the per-function CFG (cfg.hpp) computing, for every statement, an
// environment mapping variables to a product-domain value:
//
//   * an integer interval [lo, hi] over int64 (constant propagation plus
//     range reasoning, widened at loop heads so the fixpoint terminates);
//   * a settings-taint bit: whether the value may derive from a `tuned_*`
//     builtin read (data flow through expressions, assignments, calls and
//     returns; implicit flow through tainted branch/loop conditions);
//   * a handle-provenance set: which `h5dcreate` call sites a dataset
//     handle may originate from, so byte-volume predictions can recover
//     element sizes without def-use uniqueness (joins merge provenance;
//     an empty set means "unknown", read as a top element size).
//
// The analysis is interprocedural via memoized per-(function, abstract
// arguments, caller-control-taint) contexts, solved depth-first at the
// call site. Loop trip counts are bounded structurally: for-loops whose
// header matches `for (i = a; i < b; i = i + c)` (and the <=, >, >=
// variants) get trip-count intervals from the interval endpoints of a, b
// and c; everything else is [0, unbounded].
//
// Soundness notes. Concrete mini-C arithmetic is two's-complement int64,
// so any abstract operation whose exact result could leave the int64
// range returns top (wrap-around covers the whole domain) — this is the
// "overflow saturation" the interval tests pin down. Implicit taint is
// computed from the *current* environments of a statement's structural
// ancestors and re-stabilized in an outer loop after each inner fixpoint,
// so late-arriving condition taint always reaches the controlled body.
// Programs the solver cannot finish soundly (recursion, call-depth or
// transfer budgets exceeded) throw; consumers treat that as unanalyzable
// rather than trusting partial results.
//
// Consumers: the static I/O cost model (cost_model.hpp) and the replay
// invariance gate (src/replay/invariance.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "common/error.hpp"
#include "minic/ast.hpp"

namespace tunio::analysis {

/// Integer interval over int64. The extremes double as "unbounded"
/// markers: since concrete values are int64, lo == kMin literally means
/// "as low as the type allows" and is rendered as -inf.
struct Interval {
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  std::int64_t lo = kMin;
  std::int64_t hi = kMax;

  static Interval top() { return {}; }
  static Interval constant(std::int64_t v) { return {v, v}; }
  static Interval range(std::int64_t lo, std::int64_t hi) { return {lo, hi}; }

  bool is_top() const { return lo == kMin && hi == kMax; }
  bool is_constant() const { return lo == hi; }
  bool bounded_below() const { return lo != kMin; }
  bool bounded_above() const { return hi != kMax; }
  bool bounded() const { return bounded_below() && bounded_above(); }
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }
  bool contains(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  /// True when every value is strictly nonzero (used to decide branches).
  bool excludes_zero() const { return lo > 0 || hi < 0; }
  bool is_zero() const { return lo == 0 && hi == 0; }

  bool operator==(const Interval& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Interval& o) const { return !(*this == o); }

  Interval join(const Interval& o) const {
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }
  /// Standard widening: bounds that moved since `*this` jump to ±inf.
  Interval widen(const Interval& next) const {
    return {next.lo < lo ? kMin : lo, next.hi > hi ? kMax : hi};
  }

  std::string str() const;
};

// Abstract arithmetic (all sound w.r.t. int64 wrap-around: overflow -> top).
Interval abs_add(const Interval& a, const Interval& b);
Interval abs_sub(const Interval& a, const Interval& b);
Interval abs_mul(const Interval& a, const Interval& b);
Interval abs_div(const Interval& a, const Interval& b);
Interval abs_mod(const Interval& a, const Interval& b);
Interval abs_neg(const Interval& a);
Interval abs_min(const Interval& a, const Interval& b);
Interval abs_max(const Interval& a, const Interval& b);

// Nonnegative saturating arithmetic for *counts* (op counts, byte
// volumes): inputs are clamped to [0, inf) — a negative concrete size
// would be cast to a huge uint64 by the interpreter, which "unbounded
// above" covers — and products saturate to kMax instead of wrapping.
Interval count_clamp(const Interval& a);
Interval count_add(const Interval& a, const Interval& b);
Interval count_mul(const Interval& a, const Interval& b);

/// One abstract value: interval x taint x handle provenance.
struct AbsValue {
  Interval range;
  bool tainted = false;
  /// Possible defining `h5dcreate` call sites when this value is a
  /// dataset handle. Empty = unknown provenance (top). Capped; joins
  /// that would exceed the cap collapse to unknown.
  std::set<const minic::Expr*> origins;

  static constexpr std::size_t kMaxOrigins = 8;

  static AbsValue top() { return {}; }
  static AbsValue top_tainted() {
    AbsValue v;
    v.tainted = true;
    return v;
  }
  static AbsValue constant(std::int64_t value) {
    AbsValue v;
    v.range = Interval::constant(value);
    return v;
  }

  AbsValue join(const AbsValue& o) const;

  bool operator==(const AbsValue& o) const {
    return range == o.range && tainted == o.tainted && origins == o.origins;
  }
  bool operator!=(const AbsValue& o) const { return !(*this == o); }
};

/// Abstract environment at a program point. Ordered map so fixpoint
/// comparison and iteration are deterministic.
using AbsEnv = std::map<std::string, AbsValue>;

/// Default abstract result of `mpi_size()`: any rank count.
inline constexpr Interval kAnyMpiRanks{1, 1 << 22};

/// One analyzed (function, abstract arguments, caller control-taint)
/// instance with its post-fixpoint facts.
struct FunctionContext {
  const minic::Function* function = nullptr;
  std::vector<AbsValue> args;
  /// True when every call site reaching this context executes under
  /// settings-tainted control (the taint flows into everything the body
  /// does, including its op-emitting calls).
  bool control_tainted = false;

  /// Environment on entry to each statement's CFG node (post-fixpoint).
  /// Only statements this context reached are present.
  std::map<int, AbsEnv> stmt_in;
  /// Join of all returned values (top when the function may fall off
  /// the end).
  AbsValue result;
  /// Iteration-count interval per for/while statement id.
  std::map<int, Interval> loop_trips;
  /// Statement ids whose execution is control-dependent on tainted
  /// conditions (or inherited via `control_tainted`).
  std::set<int> tainted_control;
  /// Final callee context per user-function call expression.
  std::map<const minic::Expr*, const FunctionContext*> call_targets;
  /// A `return` statement executes under tainted control: the program's
  /// exit value leaks the settings even if no op argument does.
  bool has_tainted_return = false;
  int transfers = 0;
};

/// Thrown when an analysis budget (transfers, call depth) is exceeded or
/// recursion is detected; partial results would be unsound, so none are
/// exposed. Consumers report the program as unanalyzable.
class AnalysisLimit : public Error {
 public:
  explicit AnalysisLimit(const std::string& what) : Error(what) {}
};

class AbstractInterpreter {
 public:
  /// `mpi_ranks` is the abstract result of `mpi_size()`. Narrow it to a
  /// constant when the rank count is known (the differential tests do)
  /// for exact volumes.
  explicit AbstractInterpreter(const minic::Program& program,
                               Interval mpi_ranks = kAnyMpiRanks);

  /// Analyzes `main` (and, transitively, everything it calls). Throws
  /// AnalysisLimit on budget exhaustion or recursion and common::Error
  /// when the program has no `main`. Idempotent.
  const FunctionContext& analyze_main();

  const ProgramIndex& index() const { return index_; }
  const Interval& mpi_ranks() const { return mpi_ranks_; }

  /// Element-size interval recorded at each h5dcreate call site (join
  /// over every abstract evaluation that reached it).
  const std::map<const minic::Expr*, Interval>& dataset_elem_sizes() const {
    return elem_sizes_;
  }
  /// Element-count interval recorded at each h5set_chunking call site
  /// (join over every abstract evaluation that reached it).
  const std::map<const minic::Expr*, Interval>& chunk_elements() const {
    return chunk_elems_;
  }
  /// Element-size interval for a dataset-handle value: join over its
  /// provenance sites; top when provenance is unknown.
  Interval elem_size_of(const AbsValue& handle) const;

  /// True when the context cap forced all-top fallback contexts; results
  /// are still sound, just imprecise.
  bool approximate() const { return approximate_; }
  int total_transfers() const { return total_transfers_; }

  /// Re-evaluates `expr` in the recorded entry environment of `stmt_id`
  /// within `ctx` (read-only: user calls resolve through the recorded
  /// `call_targets`; unresolved calls yield tainted top).
  AbsValue eval_at(const FunctionContext& ctx, int stmt_id,
                   const minic::Expr& expr) const;

 private:
  struct NodeState {
    bool reached = false;
    AbsEnv in;
    int visits = 0;
    bool ctl_used = false;
  };
  struct Solver;  // transient per-context worklist state

  const FunctionContext* get_context(const minic::Function& fn,
                                     std::vector<AbsValue> args,
                                     bool control_tainted, int depth);
  void solve(FunctionContext& ctx, int depth);
  // `solver == nullptr` means read-only mode (eval_at): user calls are
  // resolved through recorded call_targets and nothing is mutated.
  AbsValue eval(const minic::Expr& expr, const AbsEnv& env,
                FunctionContext* ctx, Solver* solver, int depth);
  AbsValue eval_call(const minic::Expr& call, const AbsEnv& env,
                     FunctionContext* ctx, Solver* solver, int depth);
  bool control_taint(FunctionContext& ctx, Solver& solver,
                     const minic::Stmt& stmt, int depth);
  Interval trip_count(FunctionContext& ctx, Solver& solver,
                      const minic::Stmt& loop, int depth);

  const minic::Program* program_;
  Interval mpi_ranks_;
  ProgramIndex index_;
  std::map<const minic::Function*, FunctionCfg> cfgs_;

  std::deque<FunctionContext> contexts_;  // stable addresses
  std::map<std::string, FunctionContext*> memo_;
  std::set<const minic::Function*> in_progress_;
  std::map<const minic::Expr*, Interval> elem_sizes_;
  std::map<const minic::Expr*, Interval> chunk_elems_;
  const FunctionContext* main_ = nullptr;

  mutable int total_transfers_ = 0;
  bool approximate_ = false;
};

}  // namespace tunio::analysis
