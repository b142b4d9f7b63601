#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
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

class Linter {
 public:
  explicit Linter(const Program& program)
      : program_(program), index_(program) {
    compute_loop_residency();
    // Every byte size the checks judge comes from this one abstract
    // interpretation; an unanalyzable program keeps its structural
    // findings and loses the size-based ones (predict_cost never throws).
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
        const auto bytes = known_size(payload_of(e));
        if (looped && bytes && *bytes < kSmallWriteBytes) {
          emit(LintKind::kSmallWritesInLoop, Severity::kWarning, e, rec,
               "log write of " + bytes_str(*bytes) +
                   " inside a loop; per-request overhead dominates at this "
                   "size — aggregate or buffer",
               {"cb_buffer_size", "sieve_buf_size", "striping_unit"});
        }
        return;
      }

      if (name == "h5set_chunking" && e.children.size() == 1) {
        check_chunking(rec, id, e);
        return;
      }

      const bool strided =
          name == "h5dwrite_strided" || name == "h5dread_strided";
      const bool bulk = name == "h5dwrite_all" || name == "h5dread_all";
      if (!strided && !bulk) return;
      const bool is_write = name.rfind("h5dwrite", 0) == 0;

      // A payload the abstract interpreter pins to one size is judged
      // exactly; otherwise its bounds may still be tight enough for a
      // definite verdict (see check_payload_bounds).
      const Interval payload = payload_of(e);
      const std::optional<std::int64_t> bytes = known_size(payload);
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
      if (bytes) {
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

  /// Per-rank bytes one call moves; [0, 0] where the cost model has no
  /// site (an unanalyzable program, a call the solver never reached).
  Interval payload_of(const Expr& call) const {
    const SiteCost* site = site_of(call);
    return site == nullptr ? Interval::constant(0) : site->payload_per_call;
  }

  /// The size an interval pins down, if it is one positive value. A
  /// payload saturated at the int64 maximum is unbounded, not a size.
  static std::optional<std::int64_t> known_size(const Interval& v) {
    if (!v.is_constant() || v.lo <= 0 || !v.bounded_above()) {
      return std::nullopt;
    }
    return v.lo;
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
  /// the next h5dcreate after the call in the same function whose
  /// element size is known. The interpreter applies the pending chunk
  /// size to every later h5dcreate, so this is a lexical approximation
  /// that judges the chunk against the dataset most likely to take it.
  void check_chunking(const StmtRecord& rec, int id, const Expr& call) {
    const SiteCost* site = site_of(call);
    if (site == nullptr || !site->chunk_elements.is_constant() ||
        site->chunk_elements.lo <= 0) {
      return;
    }
    for (int other : index_.function_stmts(*rec.function)) {
      if (other <= id) continue;
      const Stmt* stmt = index_.record(other).stmt;
      const SiteCost* create = nullptr;
      for_each_own_expr(*stmt, [&](const Expr& e) {
        if (e.kind == ExprKind::kCall && e.text == "h5dcreate" &&
            e.children.size() >= 4 && create == nullptr) {
          const SiteCost* candidate = site_of(e);
          if (candidate != nullptr && candidate->elem_size.is_constant()) {
            create = candidate;
          }
        }
      });
      if (create == nullptr) continue;
      // An overflowing product is top, so its size is unknown.
      const Interval chunk_bytes =
          abs_mul(site->chunk_elements, create->elem_size);
      if (chunk_bytes.is_constant() && chunk_bytes.lo > 0 &&
          chunk_bytes.lo % kStripeAlignment != 0) {
        emit(LintKind::kStripeUnalignedAccess, Severity::kWarning, call, rec,
             "chunk of " + bytes_str(chunk_bytes.lo) +
                 " is not a multiple of the " +
                 std::to_string(kStripeAlignment) +
                 "-byte stripe unit; chunked accesses straddle OST "
                 "boundaries",
             {"alignment", "striping_unit", "chunk_cache"});
      }
      return;
    }
  }

  /// Dead writes: assignments whose definition no later statement can
  /// read. Assignments whose right-hand side calls a function are spared
  /// (the call's side effects may be the point).
  void check_dead_writes(const Function& fn) {
    const FunctionCfg cfg = build_cfg(fn);
    const ReachingDefinitions rd(fn, cfg);
    const DefUseChains chains = build_def_use(fn, cfg, rd);
    for (const auto& [def_id, uses] : chains.def_to_uses) {
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
