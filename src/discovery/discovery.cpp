#include "discovery/discovery.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "analysis/slicer.hpp"
#include "common/error.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"

namespace tunio::discovery {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;
using minic::StmtPtr;

namespace {

bool has_prefix(const std::string& name,
                const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Counts all statements in a program.
int count_statements(const Stmt& stmt) {
  int count = 1;
  if (stmt.init) count += count_statements(*stmt.init);
  if (stmt.update) count += count_statements(*stmt.update);
  if (stmt.body) count += count_statements(*stmt.body);
  if (stmt.else_body) count += count_statements(*stmt.else_body);
  for (const StmtPtr& child : stmt.statements) {
    count += count_statements(*child);
  }
  return count;
}

/// Filters a statement tree, keeping only statements in `kept`.
StmtPtr filter_stmt(const Stmt& stmt, const std::set<int>& kept) {
  if (kept.count(stmt.id) == 0) return nullptr;
  StmtPtr copy = minic::clone(stmt);
  // Blocks drop unkept children; structural bodies were cloned whole, so
  // re-filter them.
  if (copy->body) {
    StmtPtr filtered = filter_stmt(*copy->body, kept);
    copy->body = filtered ? std::move(filtered) : nullptr;
    if (!copy->body) {
      // A kept loop/branch always keeps (a possibly empty) body block.
      copy->body = std::make_unique<Stmt>();
      copy->body->kind = StmtKind::kBlock;
      copy->body->id = stmt.body->id;
      copy->body->line = stmt.body->line;
    }
  }
  if (copy->else_body) {
    StmtPtr filtered = filter_stmt(*copy->else_body, kept);
    copy->else_body = std::move(filtered);  // may become null
  }
  if (copy->init && kept.count(copy->init->id) == 0) copy->init = nullptr;
  if (copy->update && kept.count(copy->update->id) == 0) {
    copy->update = nullptr;
  }
  if (!copy->statements.empty()) {
    std::vector<StmtPtr> filtered_children;
    for (StmtPtr& child : copy->statements) {
      StmtPtr filtered = filter_stmt(*child, kept);
      if (filtered) filtered_children.push_back(std::move(filtered));
    }
    copy->statements = std::move(filtered_children);
  }
  return copy;
}

/// True when the subtree under `stmt` performs I/O.
bool subtree_has_io(const Stmt& stmt,
                    const std::vector<std::string>& io_prefixes,
                    const std::unordered_set<std::string>& io_functions) {
  bool found = false;
  auto check_expr = [&](const Expr& expr, auto&& self) -> void {
    if (expr.kind == ExprKind::kCall &&
        (has_prefix(expr.text, io_prefixes) || io_functions.count(expr.text))) {
      found = true;
    }
    for (const auto& child : expr.children) self(*child, self);
  };
  if (stmt.value) check_expr(*stmt.value, check_expr);
  if (stmt.cond) check_expr(*stmt.cond, check_expr);
  if (found) return true;
  if (stmt.init && subtree_has_io(*stmt.init, io_prefixes, io_functions)) {
    return true;
  }
  if (stmt.update && subtree_has_io(*stmt.update, io_prefixes, io_functions)) {
    return true;
  }
  if (stmt.body && subtree_has_io(*stmt.body, io_prefixes, io_functions)) {
    return true;
  }
  if (stmt.else_body &&
      subtree_has_io(*stmt.else_body, io_prefixes, io_functions)) {
    return true;
  }
  for (const StmtPtr& child : stmt.statements) {
    if (subtree_has_io(*child, io_prefixes, io_functions)) return true;
  }
  return false;
}

/// Loop Reduction: rewrites the condition of I/O-bearing for-loops from
/// `i < N` to `i < reduced_iters(N, divisor)`. `reduced_iters` is a
/// builtin of the interpreter returning max(1, N / divisor) and
/// recording the realized extrapolation factor.
void apply_loop_reduction(Stmt& stmt, int divisor,
                          const std::vector<std::string>& io_prefixes,
                          const std::unordered_set<std::string>& io_functions) {
  if (stmt.kind == StmtKind::kFor && stmt.cond &&
      stmt.cond->kind == ExprKind::kBinary &&
      (stmt.cond->text == "<" || stmt.cond->text == "<=") && stmt.body &&
      subtree_has_io(*stmt.body, io_prefixes, io_functions)) {
    auto call = std::make_unique<Expr>();
    call->kind = ExprKind::kCall;
    call->line = stmt.cond->line;
    call->text = "reduced_iters";
    call->children.push_back(std::move(stmt.cond->children[1]));
    auto divisor_lit = std::make_unique<Expr>();
    divisor_lit->kind = ExprKind::kIntLit;
    divisor_lit->line = stmt.cond->line;
    divisor_lit->int_value = divisor;
    divisor_lit->text = std::to_string(divisor);
    call->children.push_back(std::move(divisor_lit));
    stmt.cond->children[1] = std::move(call);
  }
  if (stmt.init) {
    apply_loop_reduction(*stmt.init, divisor, io_prefixes, io_functions);
  }
  if (stmt.update) {
    apply_loop_reduction(*stmt.update, divisor, io_prefixes, io_functions);
  }
  if (stmt.body) {
    apply_loop_reduction(*stmt.body, divisor, io_prefixes, io_functions);
  }
  if (stmt.else_body) {
    apply_loop_reduction(*stmt.else_body, divisor, io_prefixes, io_functions);
  }
  for (StmtPtr& child : stmt.statements) {
    apply_loop_reduction(*child, divisor, io_prefixes, io_functions);
  }
}

/// I/O Path Switching: "prepends every path written or read with a path
/// to memory" (§III-B). Paths may be built in variables before reaching
/// the I/O call, so every path-like string literal (leading '/') in the
/// kernel is redirected.
void apply_path_switching(Expr& expr) {
  if (expr.kind == ExprKind::kStringLit && !expr.text.empty() &&
      expr.text.front() == '/' &&
      expr.text.rfind(kMemoryPathPrefix, 0) != 0) {
    expr.text = std::string(kMemoryPathPrefix) + expr.text;
  }
  for (auto& child : expr.children) apply_path_switching(*child);
}

void apply_path_switching(Stmt& stmt) {
  if (stmt.value) apply_path_switching(*stmt.value);
  if (stmt.cond) apply_path_switching(*stmt.cond);
  if (stmt.init) apply_path_switching(*stmt.init);
  if (stmt.update) apply_path_switching(*stmt.update);
  if (stmt.body) apply_path_switching(*stmt.body);
  if (stmt.else_body) apply_path_switching(*stmt.else_body);
  for (StmtPtr& child : stmt.statements) apply_path_switching(*child);
}

}  // namespace

KernelResult discover_io(const Program& program,
                         const DiscoveryOptions& options) {
  analysis::SliceResult slice = analysis::slice_io(program, options.io_prefixes);
  KernelResult result;
  result.kept_stmt_ids = std::move(slice.kept);
  result.kept_stmt_ids.insert(options.manual_keep.begin(),
                              options.manual_keep.end());
  const std::set<int>& kept = result.kept_stmt_ids;

  // Reconstruct: keep only marked statements (functions whose bodies end
  // up empty of I/O still appear if they are I/O functions, because all
  // their kept statements survive; pure-compute helpers vanish unless
  // their results feed I/O).
  for (const Function& fn : program.functions) {
    result.total_statements += count_statements(*fn.body);
    StmtPtr filtered = filter_stmt(*fn.body, kept);
    const bool is_main = fn.name == "main";
    if (!filtered && !is_main) continue;  // fully dead helper
    Function out;
    out.return_type = fn.return_type;
    out.name = fn.name;
    out.params = fn.params;
    out.line = fn.line;
    if (filtered) {
      out.body = std::move(filtered);
    } else {
      out.body = std::make_unique<Stmt>();
      out.body->kind = StmtKind::kBlock;
      out.body->id = fn.body->id;
      out.body->line = fn.body->line;
    }
    result.kept_statements += count_statements(*out.body);
    result.kernel.functions.push_back(std::move(out));
  }
  result.kernel.next_stmt_id = program.next_stmt_id;
  TUNIO_CHECK_MSG(result.kernel.find("main") != nullptr,
                  "kernel lost its main function");

  // Reductions.
  if (options.loop_reduction < 1.0) {
    TUNIO_CHECK_MSG(options.loop_reduction > 0.0,
                    "loop_reduction must be in (0, 1]");
    result.loop_reduction_divisor = std::max(
        1, static_cast<int>(std::llround(1.0 / options.loop_reduction)));
    for (Function& fn : result.kernel.functions) {
      apply_loop_reduction(*fn.body, result.loop_reduction_divisor,
                           options.io_prefixes, slice.io_functions);
    }
  }
  if (options.path_switching) {
    for (Function& fn : result.kernel.functions) {
      apply_path_switching(*fn.body);
    }
  }

  result.kernel_source = minic::print(result.kernel);
  return result;
}

KernelResult discover_io(const std::string& source,
                         const DiscoveryOptions& options) {
  // Normalization round-trip: parse, print one-statement-per-line,
  // re-parse (the paper's clang-format preprocessing step).
  Program first = minic::parse(source);
  const std::string normalized = minic::print(first);
  Program program = minic::parse(normalized);
  return discover_io(program, options);
}

}  // namespace tunio::discovery
