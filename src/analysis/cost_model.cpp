#include "analysis/cost_model.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/error.hpp"

namespace tunio::analysis {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;

std::string site_kind_name(SiteKind kind) {
  switch (kind) {
    case SiteKind::kWrite: return "write";
    case SiteKind::kRead: return "read";
    case SiteKind::kMeta: return "meta";
    case SiteKind::kCompute: return "compute";
    case SiteKind::kBarrier: return "barrier";
  }
  return "<?>";
}

bool ProgramCost::any_tainted_site() const {
  for (const SiteCost& site : sites) {
    if (site.tainted) return true;
  }
  return false;
}

bool ProgramCost::bounded() const {
  for (const SiteCost& site : sites) {
    if (!site.calls.bounded_above()) return false;
    if ((site.kind == SiteKind::kWrite || site.kind == SiteKind::kRead) &&
        !site.bytes.bounded_above()) {
      return false;
    }
  }
  return true;
}

namespace {

const Interval kOne = Interval::constant(1);

enum class OpClass {
  kNone,
  kBulkWrite,
  kBulkRead,
  kStridedWrite,
  kStridedRead,
  kLogWrite,
  kFileOpen,
  kDatasetCreate,
  kMetaOther,
  kCompute,
  kBarrier,
};

OpClass classify(const std::string& name) {
  if (name == "h5dwrite_all") return OpClass::kBulkWrite;
  if (name == "h5dread_all") return OpClass::kBulkRead;
  if (name == "h5dwrite_strided") return OpClass::kStridedWrite;
  if (name == "h5dread_strided") return OpClass::kStridedRead;
  if (name == "fprintf_log") return OpClass::kLogWrite;
  if (name == "h5fcreate" || name == "h5fopen") return OpClass::kFileOpen;
  if (name == "h5dcreate") return OpClass::kDatasetCreate;
  if (name == "h5dopen" || name == "h5dclose" || name == "h5fclose" ||
      name == "h5set_chunking") {
    return OpClass::kMetaOther;
  }
  if (name == "compute") return OpClass::kCompute;
  if (name == "mpi_barrier") return OpClass::kBarrier;
  return OpClass::kNone;
}

SiteKind site_kind(OpClass cls) {
  switch (cls) {
    case OpClass::kBulkWrite:
    case OpClass::kStridedWrite:
    case OpClass::kLogWrite:
      return SiteKind::kWrite;
    case OpClass::kBulkRead:
    case OpClass::kStridedRead:
      return SiteKind::kRead;
    case OpClass::kCompute:
      return SiteKind::kCompute;
    case OpClass::kBarrier:
      return SiteKind::kBarrier;
    default:
      return SiteKind::kMeta;
  }
}

/// A return that may leave the function before later statements run:
/// anything but the unconditional final top-level statement.
bool has_early_return(const Function& fn) {
  if (fn.body == nullptr) return false;
  const std::vector<minic::StmtPtr>& top = fn.body->statements;
  bool found = false;
  const std::function<void(const Stmt&, bool)> walk = [&](const Stmt& stmt,
                                                          bool top_level) {
    if (found) return;
    if (stmt.kind == StmtKind::kReturn) {
      const bool is_final = top_level && !top.empty() &&
                            top.back().get() == &stmt;
      if (!is_final) found = true;
      return;
    }
    if (stmt.init) walk(*stmt.init, false);
    if (stmt.update) walk(*stmt.update, false);
    if (stmt.body) walk(*stmt.body, false);
    if (stmt.else_body) walk(*stmt.else_body, false);
    for (const minic::StmtPtr& child : stmt.statements) {
      walk(*child, top_level && stmt.kind == StmtKind::kBlock);
    }
  };
  walk(*fn.body, true);
  return found;
}

class CostWalker {
 public:
  explicit CostWalker(const AbstractInterpreter& absint) : absint_(absint) {}

  void run(const FunctionContext& main) { walk_context(main, kOne, 0); }

  bool tainted_control_exit() const { return tainted_control_exit_; }

  std::vector<SiteCost> take_sites() {
    std::vector<SiteCost> out;
    out.reserve(sites_.size());
    for (auto& [expr, site] : sites_) out.push_back(std::move(site));
    std::sort(out.begin(), out.end(), [](const SiteCost& a,
                                         const SiteCost& b) {
      if (a.line != b.line) return a.line < b.line;
      if (a.col != b.col) return a.col < b.col;
      return a.stmt_id < b.stmt_id;
    });
    return out;
  }

 private:
  void walk_context(const FunctionContext& ctx, const Interval& exec,
                    int depth) {
    TUNIO_CHECK_MSG(depth < 64, "cost model: call walk too deep");
    if (ctx.function->body == nullptr) return;
    const bool floor_zero = has_early_return(*ctx.function);
    walk_stmt(ctx, *ctx.function->body, exec, floor_zero, depth);
  }

  static Interval floored(const Interval& exec, bool floor_zero) {
    return floor_zero ? Interval::range(0, exec.hi) : exec;
  }

  void walk_stmt(const FunctionContext& ctx, const Stmt& stmt,
                 const Interval& exec, bool floor_zero, int depth) {
    switch (stmt.kind) {
      case StmtKind::kBlock:
        for (const minic::StmtPtr& child : stmt.statements) {
          walk_stmt(ctx, *child, exec, floor_zero, depth);
        }
        return;
      case StmtKind::kDecl:
      case StmtKind::kAssign:
      case StmtKind::kExprStmt:
        if (stmt.value != nullptr) {
          visit_expr(ctx, stmt, *stmt.value, exec, floor_zero, depth);
        }
        return;
      case StmtKind::kReturn:
        if (ctx.control_tainted || ctx.tainted_control.count(stmt.id) > 0) {
          tainted_control_exit_ = true;
        }
        if (stmt.value != nullptr) {
          visit_expr(ctx, stmt, *stmt.value, exec, floor_zero, depth);
        }
        return;
      case StmtKind::kIf: {
        Interval then_mult = Interval::range(0, 1);
        Interval else_mult = Interval::range(0, 1);
        if (stmt.cond != nullptr) {
          const Interval cond =
              absint_.eval_at(ctx, stmt.id, *stmt.cond).range;
          if (cond.is_zero()) {
            then_mult = Interval::constant(0);
            else_mult = kOne;
          } else if (cond.excludes_zero()) {
            then_mult = kOne;
            else_mult = Interval::constant(0);
          }
          visit_expr(ctx, stmt, *stmt.cond, exec, floor_zero, depth);
        }
        if (stmt.body != nullptr) {
          walk_stmt(ctx, *stmt.body, count_mul(exec, then_mult), floor_zero,
                    depth);
        }
        if (stmt.else_body != nullptr) {
          walk_stmt(ctx, *stmt.else_body, count_mul(exec, else_mult),
                    floor_zero, depth);
        }
        return;
      }
      case StmtKind::kFor:
      case StmtKind::kWhile: {
        const auto it = ctx.loop_trips.find(stmt.id);
        // Absent trip count: the loop was never reached in this context.
        const Interval trips =
            it != ctx.loop_trips.end() ? it->second : Interval::constant(0);
        if (stmt.init != nullptr) {
          walk_stmt(ctx, *stmt.init, exec, floor_zero, depth);
        }
        if (stmt.cond != nullptr) {
          // The condition runs once more than the body.
          visit_expr(ctx, stmt, *stmt.cond,
                     count_mul(exec, count_add(trips, kOne)), floor_zero,
                     depth);
        }
        const Interval body_exec = count_mul(exec, trips);
        if (stmt.body != nullptr) {
          walk_stmt(ctx, *stmt.body, body_exec, floor_zero, depth);
        }
        if (stmt.update != nullptr) {
          walk_stmt(ctx, *stmt.update, body_exec, floor_zero, depth);
        }
        return;
      }
    }
  }

  void visit_expr(const FunctionContext& ctx, const Stmt& stmt,
                  const Expr& expr, const Interval& exec, bool floor_zero,
                  int depth) {
    for (const minic::ExprPtr& child : expr.children) {
      if (child) visit_expr(ctx, stmt, *child, exec, floor_zero, depth);
    }
    if (expr.kind != ExprKind::kCall) return;

    if (const FunctionContext* const* found = lookup(ctx, expr)) {
      walk_context(**found, floored(exec, floor_zero), depth + 1);
      return;
    }
    const OpClass cls = classify(expr.text);
    if (cls == OpClass::kNone) return;
    record_site(ctx, stmt, expr, cls, floored(exec, floor_zero));
  }

  const FunctionContext* const* lookup(const FunctionContext& ctx,
                                       const Expr& expr) const {
    const auto it = ctx.call_targets.find(&expr);
    return it == ctx.call_targets.end() ? nullptr : &it->second;
  }

  void record_site(const FunctionContext& ctx, const Stmt& stmt,
                   const Expr& call, OpClass cls, const Interval& exec) {
    SiteCost& site = sites_[&call];
    if (site.site == nullptr) {
      site.site = &call;
      site.stmt_id = stmt.id;
      site.line = call.line;
      site.col = call.col;
      site.function = ctx.function->name;
      site.callee = call.text;
      site.kind = site_kind(cls);
    }
    site.calls = count_add(site.calls, exec);
    site.in_loop = site.in_loop || exec.hi > 1 || !exec.bounded_above();

    bool arg_taint = false;
    for (const minic::ExprPtr& arg : call.children) {
      if (arg && absint_.eval_at(ctx, stmt.id, *arg).tainted) {
        arg_taint = true;
        break;
      }
    }
    site.tainted = site.tainted || arg_taint || ctx.control_tainted ||
                   ctx.tainted_control.count(stmt.id) > 0;

    Interval payload = Interval::constant(0);
    Interval rank_mult = kOne;
    switch (cls) {
      case OpClass::kBulkWrite:
      case OpClass::kBulkRead:
        if (call.children.size() >= 2) {
          const AbsValue handle =
              absint_.eval_at(ctx, stmt.id, *call.children[0]);
          const Interval per =
              absint_.eval_at(ctx, stmt.id, *call.children[1]).range;
          payload = count_mul(per, absint_.elem_size_of(handle));
          rank_mult = absint_.mpi_ranks();
        }
        break;
      case OpClass::kStridedWrite:
      case OpClass::kStridedRead:
        if (call.children.size() >= 3) {
          const AbsValue handle =
              absint_.eval_at(ctx, stmt.id, *call.children[0]);
          const Interval elems =
              absint_.eval_at(ctx, stmt.id, *call.children[2]).range;
          payload = count_mul(elems, absint_.elem_size_of(handle));
          rank_mult = absint_.mpi_ranks();
        }
        break;
      case OpClass::kLogWrite:
        if (call.children.size() >= 2) {
          payload = count_clamp(
              absint_.eval_at(ctx, stmt.id, *call.children[1]).range);
        }
        break;
      default:
        break;
    }
    if (site.kind == SiteKind::kWrite || site.kind == SiteKind::kRead) {
      site.payload_per_call = payload_seen_.insert(&call).second
                                  ? payload
                                  : site.payload_per_call.join(payload);
      site.bytes = count_add(site.bytes,
                             count_mul(count_mul(exec, payload), rank_mult));
    }
  }

  const AbstractInterpreter& absint_;
  std::map<const Expr*, SiteCost> sites_;
  std::set<const Expr*> payload_seen_;
  bool tainted_control_exit_ = false;
};

}  // namespace

ProgramCost predict_cost(const Program& program, Interval mpi_ranks) {
  ProgramCost out;
  try {
    AbstractInterpreter absint(program, mpi_ranks);
    const FunctionContext& main = absint.analyze_main();
    CostWalker walker(absint);
    walker.run(main);
    out.sites = walker.take_sites();
    out.tainted_control_exit = walker.tainted_control_exit();
    out.approximate = absint.approximate();
    out.solver_transfers = absint.total_transfers();

    const auto recorded = [](const std::map<const Expr*, Interval>& sites,
                             const Expr* call) {
      const auto it = sites.find(call);
      return it == sites.end() ? Interval::top() : it->second;
    };
    for (SiteCost& site : out.sites) {
      switch (site.kind) {
        case SiteKind::kWrite:
          out.write_ops = count_add(out.write_ops, site.calls);
          out.bytes_written = count_add(out.bytes_written, site.bytes);
          break;
        case SiteKind::kRead:
          out.read_ops = count_add(out.read_ops, site.calls);
          out.bytes_read = count_add(out.bytes_read, site.bytes);
          break;
        case SiteKind::kMeta:
          if (site.callee == "h5fcreate" || site.callee == "h5fopen") {
            out.file_opens = count_add(out.file_opens, site.calls);
          } else if (site.callee == "h5dcreate") {
            out.dataset_creates = count_add(out.dataset_creates, site.calls);
            site.elem_size = recorded(absint.dataset_elem_sizes(), site.site);
          } else if (site.callee == "h5set_chunking") {
            site.chunk_elements =
                recorded(absint.chunk_elements(), site.site);
          }
          break;
        default:
          break;
      }
    }
    out.analyzable = true;
  } catch (const std::exception& e) {
    out.analyzable = false;
    out.failure = e.what();
    out.sites.clear();
  }
  return out;
}

std::vector<std::pair<std::string, double>> static_impact(
    const ProgramCost& cost) {
  std::map<std::string, double> weight;
  const auto boost = [&](const char* param, double w) { weight[param] += w; };

  if (!cost.analyzable) return {};

  bool large_contiguous = false;
  bool strided_loops = false;
  bool small_writes = false;
  for (const SiteCost& site : cost.sites) {
    if (site.kind != SiteKind::kWrite && site.kind != SiteKind::kRead) {
      continue;
    }
    const bool bulk = site.callee == "h5dwrite_all" ||
                      site.callee == "h5dread_all";
    const bool strided = site.callee == "h5dwrite_strided" ||
                         site.callee == "h5dread_strided";
    if (bulk && site.payload_per_call.lo >= kLargeAccessBytes) {
      large_contiguous = true;
    }
    if (strided && site.in_loop) strided_loops = true;
    if (site.kind == SiteKind::kWrite && site.in_loop &&
        site.payload_per_call.bounded_above() &&
        site.payload_per_call.hi > 0 &&
        site.payload_per_call.hi < kSmallWriteBytes) {
      small_writes = true;
    }
  }
  if (large_contiguous) {
    boost("striping_factor", 3.0);
    boost("cb_nodes", 2.5);
    boost("striping_unit", 1.5);
  }
  if (strided_loops) {
    boost("romio_collective", 2.0);
    boost("cb_nodes", 1.5);
    boost("cb_buffer_size", 1.5);
  }
  if (small_writes) {
    boost("cb_buffer_size", 2.0);
    boost("sieve_buf_size", 1.5);
    boost("striping_unit", 1.0);
  }
  const Interval meta = count_add(cost.file_opens, cost.dataset_creates);
  if (meta.hi >= 16) {
    boost("mdc_config", 2.0);
    boost("meta_block_size", 1.5);
    boost("coll_metadata_ops", 1.0);
  }
  if (cost.read_ops.hi > 0) {
    boost("chunk_cache", 1.5);
    boost("sieve_buf_size", 1.0);
  }

  double max_weight = 0.0;
  for (const auto& [param, w] : weight) {
    max_weight = std::max(max_weight, w);
  }
  std::vector<std::pair<std::string, double>> out(weight.begin(),
                                                  weight.end());
  if (max_weight > 0.0) {
    for (auto& [param, w] : out) w /= max_weight;
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

}  // namespace tunio::analysis
