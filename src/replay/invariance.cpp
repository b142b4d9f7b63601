#include "replay/invariance.hpp"

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "analysis/slicer.hpp"
#include "obs/metrics.hpp"

namespace tunio::replay {
namespace {

/// Builtins that emit trace ops: a tainted argument or tainted control
/// at any of these call sites makes the op stream settings-dependent.
const std::vector<std::string> kOpEmittingPrefixes = {
    "h5", "fprintf_log", "compute", "mpi_barrier"};

bool has_tuned_call(const minic::Expr& expr) {
  if (expr.kind == minic::ExprKind::kCall &&
      expr.text.rfind(kTunedPrefix, 0) == 0) {
    return true;
  }
  for (const minic::ExprPtr& child : expr.children) {
    if (child && has_tuned_call(*child)) return true;
  }
  return false;
}

/// Ids of statements whose own expressions (value or condition) read a
/// tuned_* builtin. Header statements of a `for` (init/update) have their
/// own ids and are visited as children.
void collect_tuned_stmts(const minic::Stmt& stmt, std::set<int>& out) {
  if ((stmt.value && has_tuned_call(*stmt.value)) ||
      (stmt.cond && has_tuned_call(*stmt.cond))) {
    out.insert(stmt.id);
  }
  if (stmt.init) collect_tuned_stmts(*stmt.init, out);
  if (stmt.update) collect_tuned_stmts(*stmt.update, out);
  if (stmt.body) collect_tuned_stmts(*stmt.body, out);
  if (stmt.else_body) collect_tuned_stmts(*stmt.else_body, out);
  for (const minic::StmtPtr& child : stmt.statements) {
    collect_tuned_stmts(*child, out);
  }
}

std::set<int> tuned_readers(const minic::Program& program) {
  std::set<int> readers;
  for (const minic::Function& fn : program.functions) {
    if (fn.body) collect_tuned_stmts(*fn.body, readers);
  }
  return readers;
}

void count(const char* metric) {
  obs::MetricsRegistry::global().counter(metric).add(1);
}

}  // namespace

InvarianceReport analyze_invariance(const minic::Program& program) {
  InvarianceReport report;

  // Fast path: no tuned_* read anywhere — trivially invariant, so skip
  // the solver entirely.
  if (tuned_readers(program).empty()) {
    report.dependent = false;
    report.reason = "no tuned_* reads";
    count("replay.gate.invariant");
    return report;
  }

  const analysis::ProgramCost cost = analysis::predict_cost(program);
  if (!cost.analyzable) {
    report.dependent = true;
    report.unanalyzable = true;
    report.reason = "static analysis failed: " + cost.failure;
    count("replay.gate.unanalyzable");
    count("replay.gate.dependent");
    return report;
  }

  const analysis::SiteCost* first_tainted = nullptr;
  for (const analysis::SiteCost& site : cost.sites) {
    if (site.tainted) {
      ++report.tainted_sites;
      if (first_tainted == nullptr) first_tainted = &site;
    }
  }

  if (first_tainted != nullptr) {
    std::ostringstream reason;
    reason << "tuned value reaches " << first_tainted->callee << " at line "
           << first_tainted->line;
    if (report.tainted_sites > 1) {
      reason << " (+" << report.tainted_sites - 1 << " more sites)";
    }
    report.dependent = true;
    report.reason = reason.str();
  } else if (cost.tainted_control_exit) {
    report.dependent = true;
    report.reason = "program exit is control-dependent on tuned values";
  } else {
    report.dependent = false;
    report.reason = "tuned reads never reach op-emitting calls";
  }

  count(report.dependent ? "replay.gate.dependent" : "replay.gate.invariant");
  return report;
}

bool slicer_dependent(const minic::Program& program) {
  try {
    const std::set<int> readers = tuned_readers(program);
    if (readers.empty()) return false;
    const analysis::SliceResult slice =
        analysis::slice_io(program, kOpEmittingPrefixes);
    for (const int id : readers) {
      if (slice.kept.count(id) > 0) return true;
    }
    return false;
  } catch (...) {
    return true;
  }
}

bool settings_dependent(const minic::Program& program) {
  return analyze_invariance(program).dependent;
}

}  // namespace tunio::replay
