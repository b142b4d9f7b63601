#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "common/error.hpp"
#include "minic/parser.hpp"

namespace tunio::analysis {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;

std::string kind_name(LintKind kind) {
  switch (kind) {
    case LintKind::kSmallWritesInLoop: return "small-writes-in-loop";
    case LintKind::kOpenCloseInLoop: return "open-close-in-loop";
    case LintKind::kCreateOverwriteInLoop: return "create-overwrite-in-loop";
    case LintKind::kStripeUnalignedAccess: return "stripe-unaligned-access";
    case LintKind::kIndependentIoInLoop: return "independent-io-in-loop";
    case LintKind::kDeadWrite: return "dead-write";
    case LintKind::kContiguousLargeAccess: return "contiguous-large-access";
    case LintKind::kUnboundedLoopIo: return "unbounded-loop-io";
    case LintKind::kSettingsDependentIo: return "settings-dependent-io";
  }
  return "<?>";
}

std::string severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "<?>";
}

std::string format(const Diagnostic& d) {
  std::ostringstream out;
  out << d.function << ":" << d.line << ":" << d.column << ": "
      << severity_name(d.severity) << ": " << kind_name(d.kind) << ": "
      << d.message;
  if (!d.hint_params.empty()) {
    out << " [hints: ";
    for (std::size_t i = 0; i < d.hint_params.size(); ++i) {
      if (i) out << ", ";
      out << d.hint_params[i];
    }
    out << "]";
  }
  return out.str();
}

bool LintReport::has_errors() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

std::size_t LintReport::count(LintKind kind) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.kind == kind) ++n;
  }
  return n;
}

std::vector<std::pair<std::string, double>> LintReport::tuning_hints() const {
  std::map<std::string, double> weight;
  for (const Diagnostic& d : diagnostics) {
    const double w = d.severity == Severity::kError
                         ? 3.0
                         : d.severity == Severity::kWarning ? 2.0 : 1.0;
    for (const std::string& param : d.hint_params) weight[param] += w;
  }
  // Static-impact pre-ranking: already normalized to (0, 1], folded in
  // at one info-severity unit so it refines ties without drowning the
  // diagnostics' explicit findings.
  for (const auto& [param, w] : static_impact(cost)) weight[param] += w;
  double max_weight = 0.0;
  for (const auto& [param, w] : weight) max_weight = std::max(max_weight, w);
  std::vector<std::pair<std::string, double>> hints(weight.begin(),
                                                    weight.end());
  if (max_weight > 0.0) {
    for (auto& [param, w] : hints) w /= max_weight;
  }
  std::sort(hints.begin(), hints.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return hints;
}

namespace {

/// `v` as int64, or nullopt when it does not fit. Folding computes in
/// __int128 and treats a result outside int64 as "not a constant", as
/// the abs_* operations treat it as top.
std::optional<std::int64_t> fit(__int128 v) {
  if (v < Interval::kMin || v > Interval::kMax) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

/// Per-function dataflow bundle the passes share.
struct FunctionAnalysis {
  const Function* function = nullptr;
  std::unique_ptr<FunctionCfg> cfg;
  std::unique_ptr<ReachingDefinitions> rd;
  DefUseChains chains;
};

class Linter {
 public:
  explicit Linter(const Program& program)
      : program_(program), index_(program) {
    for (const Function& fn : program.functions) {
      FunctionAnalysis fa;
      fa.function = &fn;
      fa.cfg = std::make_unique<FunctionCfg>(build_cfg(fn));
      fa.rd = std::make_unique<ReachingDefinitions>(fn, *fa.cfg);
      fa.chains = build_def_use(fn, *fa.cfg, *fa.rd);
      analyses_[&fn] = std::move(fa);
    }
    compute_loop_residency();
    // The cost model powers the interval fallbacks and the unbounded /
    // settings-dependent passes; an unanalyzable program just loses
    // those refinements (predict_cost never throws).
    report_.cost = predict_cost(program);
    for (const SiteCost& site : report_.cost.sites) {
      site_of_[site.site] = &site;
    }
  }

  LintReport run() {
    for (const Function& fn : program_.functions) {
      for (int id : index_.function_stmts(fn)) check_stmt(id);
      check_dead_writes(fn);
    }
    check_cost_sites();
    // Deterministic order: by function appearance, then line, then kind.
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    return std::move(report_);
  }

 private:
  // --- constant folding through reaching definitions ---------------------

  /// Folds `expr` (evaluated at CFG node `node` of `fa`) to a constant,
  /// resolving variables through their unique reaching definition. A
  /// result outside int64 (including INT64_MIN / -1) is not a constant.
  std::optional<std::int64_t> fold(const FunctionAnalysis& fa, int node,
                                   const Expr& expr,
                                   std::set<int>* visited) const {
    switch (expr.kind) {
      case ExprKind::kIntLit:
        return expr.int_value;
      case ExprKind::kUnary: {
        if (expr.text != "-") return std::nullopt;
        auto v = fold(fa, node, *expr.children[0], visited);
        return v ? fit(-static_cast<__int128>(*v)) : std::nullopt;
      }
      case ExprKind::kBinary: {
        auto a = fold(fa, node, *expr.children[0], visited);
        auto b = fold(fa, node, *expr.children[1], visited);
        if (!a || !b) return std::nullopt;
        const __int128 x = *a;
        const __int128 y = *b;
        if (expr.text == "+") return fit(x + y);
        if (expr.text == "-") return fit(x - y);
        if (expr.text == "*") return fit(x * y);
        if (expr.text == "/" && y != 0) return fit(x / y);
        if (expr.text == "%" && y != 0) return fit(x % y);
        return std::nullopt;
      }
      case ExprKind::kVar: {
        const std::vector<int> defs = fa.rd->reaching(node, expr.text);
        if (defs.size() != 1) return std::nullopt;  // ambiguous or unknown
        const Definition& def = fa.rd->definitions()[defs[0]];
        if (def.stmt_id < 0) return std::nullopt;  // parameter
        if (visited->count(def.stmt_id)) return std::nullopt;
        visited->insert(def.stmt_id);
        const Stmt* def_stmt = index_.record(def.stmt_id).stmt;
        if (def_stmt->value == nullptr) return std::nullopt;
        return fold(fa, def.node, *def_stmt->value, visited);
      }
      default:
        return std::nullopt;
    }
  }

  std::optional<std::int64_t> fold_at(const FunctionAnalysis& fa, int stmt_id,
                                      const Expr& expr) const {
    const int node = fa.cfg->node_of(stmt_id);
    if (node < 0) return std::nullopt;
    std::set<int> visited;
    return fold(fa, node, expr, &visited);
  }

  /// Element size of the dataset handle `handle` as used at `stmt_id`:
  /// follows the handle's unique reaching definition to its h5dcreate and
  /// folds the element-size argument.
  std::optional<std::int64_t> elem_size_of(const FunctionAnalysis& fa,
                                           int stmt_id,
                                           const Expr& handle) const {
    if (handle.kind != ExprKind::kVar) return std::nullopt;
    const int node = fa.cfg->node_of(stmt_id);
    if (node < 0) return std::nullopt;
    const std::vector<int> defs = fa.rd->reaching(node, handle.text);
    if (defs.size() != 1) return std::nullopt;
    const Definition& def = fa.rd->definitions()[defs[0]];
    if (def.stmt_id < 0) return std::nullopt;
    const Stmt* def_stmt = index_.record(def.stmt_id).stmt;
    if (def_stmt->value == nullptr ||
        def_stmt->value->kind != ExprKind::kCall ||
        def_stmt->value->text != "h5dcreate" ||
        def_stmt->value->children.size() < 4) {
      return std::nullopt;
    }
    return fold_at(fa, def.stmt_id, *def_stmt->value->children[2]);
  }

  // --- loop residency ----------------------------------------------------

  /// A function is loop-resident when any of its call sites sits inside a
  /// loop (or inside another loop-resident function): its body executes
  /// once per iteration even though it is lexically loop-free.
  void compute_loop_residency() {
    struct CallSite {
      const Function* caller;
      int loop_depth;
    };
    std::unordered_map<const Function*, std::vector<CallSite>> sites;
    for (int id : index_.ids()) {
      const StmtRecord& rec = index_.record(id);
      for_each_own_expr(*rec.stmt, [&](const Expr& e) {
        if (e.kind != ExprKind::kCall) return;
        const Function* callee = program_.find(e.text);
        if (callee != nullptr) {
          sites[callee].push_back({rec.function, rec.loop_depth});
        }
      });
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Function& fn : program_.functions) {
        if (loop_resident_.count(&fn)) continue;
        for (const CallSite& site : sites[&fn]) {
          if (site.loop_depth > 0 || loop_resident_.count(site.caller)) {
            loop_resident_.insert(&fn);
            changed = true;
            break;
          }
        }
      }
    }
  }

  bool in_loop(const StmtRecord& rec) const {
    return rec.loop_depth > 0 || loop_resident_.count(rec.function) > 0;
  }

  // --- diagnostics -------------------------------------------------------

  void emit(LintKind kind, Severity severity, const Expr& at,
            const StmtRecord& rec, std::string message,
            std::vector<std::string> hints) {
    Diagnostic d;
    d.kind = kind;
    d.severity = severity;
    d.line = at.line;
    d.column = at.col;
    d.function = rec.function->name;
    d.message = std::move(message);
    d.hint_params = std::move(hints);
    report_.diagnostics.push_back(std::move(d));
  }

  static std::string bytes_str(std::int64_t bytes) {
    return std::to_string(bytes) + " bytes";
  }

  void check_stmt(int id) {
    const StmtRecord& rec = index_.record(id);
    const FunctionAnalysis& fa = analyses_.at(rec.function);
    const bool looped = in_loop(rec);

    for_each_own_expr(*rec.stmt, [&](const Expr& e) {
      if (e.kind != ExprKind::kCall) return;
      const std::string& name = e.text;

      if (name == "h5fcreate" || name == "h5fopen" || name == "h5fclose") {
        if (looped) {
          emit(LintKind::kOpenCloseInLoop, Severity::kWarning, e, rec,
               name + " inside a loop: per-iteration open/close churn "
                      "round-trips the metadata server",
               {"mdc_config", "meta_block_size", "coll_metadata_ops",
                "coll_metadata_write"});
        }
        if (name == "h5fcreate" && looped && !e.children.empty() &&
            e.children[0]->kind == ExprKind::kStringLit) {
          emit(LintKind::kCreateOverwriteInLoop, Severity::kError, e, rec,
               "h5fcreate(\"" + e.children[0]->text +
                   "\") recreates the same file every iteration, "
                   "overwriting previously written data",
               {"mdc_config", "meta_block_size", "coll_metadata_ops",
                "coll_metadata_write"});
        }
        return;
      }

      if (name == "fprintf_log" && e.children.size() == 2) {
        const auto bytes = fold_at(fa, id, *e.children[1]);
        if (looped && bytes && *bytes > 0 && *bytes < kSmallWriteBytes) {
          emit(LintKind::kSmallWritesInLoop, Severity::kWarning, e, rec,
               "log write of " + bytes_str(*bytes) +
                   " inside a loop; per-request overhead dominates at this "
                   "size — aggregate or buffer",
               {"cb_buffer_size", "sieve_buf_size", "striping_unit"});
        }
        return;
      }

      if (name == "h5set_chunking" && e.children.size() == 1) {
        check_chunking(fa, rec, id, e);
        return;
      }

      const bool strided =
          name == "h5dwrite_strided" || name == "h5dread_strided";
      const bool bulk = name == "h5dwrite_all" || name == "h5dread_all";
      if (!strided && !bulk) return;
      const bool is_write = name.rfind("h5dwrite", 0) == 0;

      std::optional<std::int64_t> bytes;
      if (strided && e.children.size() == 3) {
        const auto elems = fold_at(fa, id, *e.children[2]);
        const auto elem_size = elem_size_of(fa, id, *e.children[0]);
        if (elems && elem_size) bytes = fit(__int128{*elems} * *elem_size);
      } else if (bulk && e.children.size() == 2) {
        const auto per_rank = fold_at(fa, id, *e.children[1]);
        const auto elem_size = elem_size_of(fa, id, *e.children[0]);
        if (per_rank && elem_size) {
          bytes = fit(__int128{*per_rank} * *elem_size);
        }
      }

      // Interval fallback: where def-use folding fails (joined handles,
      // interprocedural values), the abstract interpreter's per-site
      // payload may still pin the size exactly — or bound it tightly
      // enough for a definite verdict (see check_payload_bounds). A
      // payload saturated at the int64 maximum is unbounded, not a size.
      Interval payload = Interval::constant(0);
      if (const SiteCost* site = site_of(e)) {
        payload = site->payload_per_call;
        if (!bytes && payload.is_constant() && payload.lo > 0 &&
            payload.bounded_above()) {
          bytes = payload.lo;
        }
      }
      if (!bytes) {
        check_payload_bounds(e, rec, payload, looped, is_write, bulk);
      }

      if (strided && looped) {
        emit(LintKind::kIndependentIoInLoop, Severity::kWarning, e, rec,
             "per-block strided " +
                 std::string(is_write ? "write" : "read") +
                 " inside a loop issues independent requests; a collective "
                 "transfer would coalesce them",
             {"romio_collective", "cb_nodes", "cb_buffer_size"});
      }
      if (bytes && *bytes > 0) {
        if (strided && *bytes % kStripeAlignment != 0) {
          emit(LintKind::kStripeUnalignedAccess, Severity::kWarning, e, rec,
               "strided block of " + bytes_str(*bytes) +
                   " is not a multiple of the " +
                   std::to_string(kStripeAlignment) +
                   "-byte stripe unit; accesses straddle OST boundaries",
               {"alignment", "striping_unit", "chunk_cache"});
        }
        if (looped && is_write && *bytes < kSmallWriteBytes) {
          emit(LintKind::kSmallWritesInLoop, Severity::kWarning, e, rec,
               "write of " + bytes_str(*bytes) +
                   " inside a loop; per-request overhead dominates at this "
                   "size — aggregate or buffer",
               {"cb_buffer_size", "sieve_buf_size", "striping_unit"});
        }
        if (bulk && *bytes >= kLargeAccessBytes) {
          emit(LintKind::kContiguousLargeAccess, Severity::kInfo, e, rec,
               "contiguous " + std::string(is_write ? "write" : "read") +
                   " of " + bytes_str(*bytes) +
                   " per rank; access is contiguous-large, so stripe-level "
                   "parallelism dominates — prioritize striping_factor / "
                   "cb_nodes",
               {"striping_factor", "cb_nodes", "striping_unit"});
        }
      }
    });
  }

  const SiteCost* site_of(const Expr& call) const {
    const auto it = site_of_.find(&call);
    return it == site_of_.end() ? nullptr : it->second;
  }

  /// Definite small/large verdicts from payload *intervals* when the
  /// exact size is unknown: an upper bound under the small-write
  /// threshold, or a lower bound over the large-access threshold, is
  /// already conclusive.
  void check_payload_bounds(const Expr& e, const StmtRecord& rec,
                            const Interval& payload, bool looped,
                            bool is_write, bool bulk) {
    if (looped && is_write && payload.hi > 0 && payload.bounded_above() &&
        payload.hi < kSmallWriteBytes) {
      emit(LintKind::kSmallWritesInLoop, Severity::kWarning, e, rec,
           "write of at most " + bytes_str(payload.hi) +
               " inside a loop; per-request overhead dominates at this "
               "size — aggregate or buffer",
           {"cb_buffer_size", "sieve_buf_size", "striping_unit"});
    }
    if (bulk && payload.lo >= kLargeAccessBytes) {
      emit(LintKind::kContiguousLargeAccess, Severity::kInfo, e, rec,
           "contiguous " + std::string(is_write ? "write" : "read") +
               " of at least " + bytes_str(payload.lo) +
               " per rank; access is contiguous-large, so stripe-level "
               "parallelism dominates — prioritize striping_factor / "
               "cb_nodes",
           {"striping_factor", "cb_nodes", "striping_unit"});
    }
  }

  /// Diagnostics the cost model alone can see: transfer sites whose
  /// statically predicted call count has no upper bound, and sites whose
  /// arguments or control flow carry settings taint.
  void check_cost_sites() {
    if (!report_.cost.analyzable) return;
    for (const SiteCost& site : report_.cost.sites) {
      if (site.kind != SiteKind::kWrite && site.kind != SiteKind::kRead) {
        continue;
      }
      const StmtRecord& rec = index_.record(site.stmt_id);
      if (site.in_loop && !site.calls.bounded_above()) {
        emit(LintKind::kUnboundedLoopIo, Severity::kWarning, *site.site, rec,
             site.callee +
                 " repeats without a statically resolvable loop bound; "
                 "total I/O volume is unpredictable — bound the loop or "
                 "rely on collective buffering",
             {"cb_buffer_size", "romio_collective", "cb_nodes"});
      }
      if (site.tainted) {
        emit(LintKind::kSettingsDependentIo, Severity::kInfo, *site.site, rec,
             site.callee +
                 " observes tuned settings (argument or control flow), so "
                 "the op stream changes across configurations; the "
                 "record/replay evaluation fast path is disabled",
             {});
      }
    }
  }

  /// Chunk sizes are declared in elements; the element size comes from
  /// the next h5dcreate in the same function (chunking is sticky state
  /// applied to the next dataset created).
  void check_chunking(const FunctionAnalysis& fa, const StmtRecord& rec,
                      int id, const Expr& call) {
    const auto elems = fold_at(fa, id, *call.children[0]);
    if (!elems || *elems <= 0) return;
    for (int other : index_.function_stmts(*rec.function)) {
      if (other <= id) continue;
      const Stmt* stmt = index_.record(other).stmt;
      std::optional<std::int64_t> elem_size;
      for_each_own_expr(*stmt, [&](const Expr& e) {
        if (e.kind == ExprKind::kCall && e.text == "h5dcreate" &&
            e.children.size() >= 4 && !elem_size) {
          elem_size = fold_at(fa, other, *e.children[2]);
        }
      });
      if (!elem_size) continue;
      // An overflowing size is unknown: 0 skips the check.
      const std::int64_t chunk_bytes =
          fit(__int128{*elems} * *elem_size).value_or(0);
      if (chunk_bytes > 0 && chunk_bytes % kStripeAlignment != 0) {
        emit(LintKind::kStripeUnalignedAccess, Severity::kWarning, call, rec,
             "chunk of " + bytes_str(chunk_bytes) +
                 " is not a multiple of the " +
                 std::to_string(kStripeAlignment) +
                 "-byte stripe unit; chunked accesses straddle OST "
                 "boundaries",
             {"alignment", "striping_unit", "chunk_cache"});
      }
      return;  // only the next dataset inherits the pending chunk size
    }
  }

  /// Dead writes: assignments whose definition no later statement can
  /// read. Assignments whose right-hand side calls a function are spared
  /// (the call's side effects may be the point).
  void check_dead_writes(const Function& fn) {
    const FunctionAnalysis& fa = analyses_.at(&fn);
    for (const auto& [def_id, uses] : fa.chains.def_to_uses) {
      if (!uses.empty()) continue;
      const StmtRecord& rec = index_.record(def_id);
      if (rec.stmt->kind != StmtKind::kAssign) continue;
      bool has_call = false;
      for_each_own_expr(*rec.stmt, [&](const Expr& e) {
        if (e.kind == ExprKind::kCall) has_call = true;
      });
      if (has_call) continue;
      Diagnostic d;
      d.kind = LintKind::kDeadWrite;
      d.severity = Severity::kWarning;
      d.line = rec.stmt->line;
      d.column = rec.stmt->col;
      d.function = fn.name;
      d.message = "value assigned to '" + rec.stmt->name +
                  "' is never read (dead write)";
      report_.diagnostics.push_back(std::move(d));
    }
  }

  const Program& program_;
  ProgramIndex index_;
  std::unordered_map<const Function*, FunctionAnalysis> analyses_;
  std::set<const Function*> loop_resident_;
  std::unordered_map<const Expr*, const SiteCost*> site_of_;
  LintReport report_;
};

}  // namespace

LintReport lint(const Program& program) { return Linter(program).run(); }

LintReport lint_source(const std::string& source) {
  const Program program = minic::parse(source);
  LintReport report = lint(program);
  // The parsed AST dies with this scope: drop the per-site Expr pointers
  // so the report cannot dangle (line/col/callee/intervals remain).
  for (SiteCost& site : report.cost.sites) site.site = nullptr;
  return report;
}

}  // namespace tunio::analysis
