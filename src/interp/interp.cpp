#include "interp/interp.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "discovery/discovery.hpp"
#include "workloads/ops.hpp"

namespace tunio::interp {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;

namespace {

using Value = std::variant<std::int64_t, double, std::string>;

[[noreturn]] void fail(int line, const std::string& message) {
  throw SourceError("minic runtime error at line " + std::to_string(line) +
                    ": " + message);
}

std::int64_t as_int(const Value& v, int line) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    // Truncation is defined only when the result fits; NaN fails both
    // comparisons.
    if (*d >= -0x1p63 && *d < 0x1p63) return static_cast<std::int64_t>(*d);
    fail(line, "double value " + std::to_string(*d) +
                   " is outside the int range");
  }
  fail(line, "expected a numeric value, found a string");
}

double as_double(const Value& v, int line) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  fail(line, "expected a numeric value, found a string");
}

const std::string& as_string(const Value& v, int line) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  fail(line, "expected a string value");
}

// Mini-C integers are two's-complement int64 (see analysis/absint.hpp):
// + - * and negation wrap, computed in uint64 where wrapping is defined.
std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }

bool truthy(const Value& v, int line) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i != 0;
  if (const auto* d = std::get_if<double>(&v)) return *d != 0.0;
  fail(line, "string used as a condition");
}

class Interpreter {
 public:
  Interpreter(const Program& program, mpisim::MpiSim& mpi,
              pfs::PfsSimulator& fs, const cfg::StackSettings& settings,
              const InterpOptions& options)
      : program_(program),
        mpi_(mpi),
        fs_(fs),
        settings_(settings),
        options_(options),
        exec_(mpi, fs, settings) {}

  InterpResult run() {
    const Function* main_fn = program_.find("main");
    if (main_fn == nullptr) fail(0, "program has no main()");

    exec_.meter_begin();
    exec_.phase(trace::Phase::kOther);

    scopes_.emplace_back();
    const std::optional<Value> ret = exec_block(*main_fn->body);
    scopes_.pop_back();

    // Close any files the program leaked.
    for (std::uint32_t file = 0; file < exec_.num_files(); ++file) {
      exec_.close_file(file);
    }

    InterpResult result;
    result.exit_code = ret ? as_int(*ret, main_fn->line) : 0;
    for (const auto& [site, factor] : reduction_factors_) {
      result.extrapolation *= factor;
    }
    const wl::RunResult run = exec_.meter_end();
    result.perf = run.perf;
    result.sim_seconds = run.sim_seconds;
    result.predicted_bytes_written =
        static_cast<double>(run.perf.counters.bytes_written) *
        result.extrapolation;
    result.predicted_write_ops =
        static_cast<double>(run.perf.counters.write_ops) * result.extrapolation;
    return result;
  }

 private:
  // --- environment -------------------------------------------------------

  Value* find_var(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }

  void declare(const std::string& name, Value value, int line) {
    auto [it, inserted] = scopes_.back().emplace(name, std::move(value));
    if (!inserted) fail(line, "redeclaration of " + name);
  }

  // --- statements ---------------------------------------------------------

  /// Executes a block; returns the value of an executed `return`.
  std::optional<Value> exec_block(const Stmt& block) {
    scopes_.emplace_back();
    std::optional<Value> ret;
    for (const auto& stmt : block.statements) {
      ret = exec_stmt(*stmt);
      if (ret) break;
    }
    scopes_.pop_back();
    return ret;
  }

  std::optional<Value> exec_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kBlock:
        return exec_block(stmt);
      case StmtKind::kDecl: {
        Value init = stmt.value ? eval(*stmt.value) : default_value(stmt);
        declare(stmt.name, std::move(init), stmt.line);
        return std::nullopt;
      }
      case StmtKind::kAssign: {
        Value* slot = find_var(stmt.name);
        if (slot == nullptr) fail(stmt.line, "unknown variable " + stmt.name);
        *slot = eval(*stmt.value);
        return std::nullopt;
      }
      case StmtKind::kExprStmt:
        eval(*stmt.value);
        return std::nullopt;
      case StmtKind::kReturn:
        return stmt.value ? eval(*stmt.value) : Value(std::int64_t{0});
      case StmtKind::kIf:
        if (truthy(eval(*stmt.cond), stmt.line)) {
          return exec_stmt(*stmt.body);
        }
        if (stmt.else_body) return exec_stmt(*stmt.else_body);
        return std::nullopt;
      case StmtKind::kWhile: {
        std::uint64_t guard = 0;
        while (truthy(eval(*stmt.cond), stmt.line)) {
          if (++guard > options_.max_loop_iterations) {
            fail(stmt.line, "loop iteration limit exceeded");
          }
          std::optional<Value> ret = exec_stmt(*stmt.body);
          if (ret) return ret;
        }
        return std::nullopt;
      }
      case StmtKind::kFor: {
        scopes_.emplace_back();
        if (stmt.init) exec_stmt(*stmt.init);
        std::uint64_t guard = 0;
        std::optional<Value> ret;
        while (!stmt.cond || truthy(eval(*stmt.cond), stmt.line)) {
          if (++guard > options_.max_loop_iterations) {
            fail(stmt.line, "loop iteration limit exceeded");
          }
          ret = exec_stmt(*stmt.body);
          if (ret) break;
          if (stmt.update) exec_stmt(*stmt.update);
        }
        scopes_.pop_back();
        return ret;
      }
    }
    fail(stmt.line, "unreachable statement kind");
  }

  static Value default_value(const Stmt& decl) {
    if (decl.decl_type == "double") return 0.0;
    if (decl.decl_type == "string") return std::string();
    return std::int64_t{0};
  }

  // --- expressions --------------------------------------------------------

  Value eval(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIntLit:
        return expr.int_value;
      case ExprKind::kFloatLit:
        return expr.float_value;
      case ExprKind::kStringLit:
        return expr.text;
      case ExprKind::kVar: {
        Value* slot = find_var(expr.text);
        if (slot == nullptr) fail(expr.line, "unknown variable " + expr.text);
        return *slot;
      }
      case ExprKind::kUnary: {
        Value operand = eval(*expr.children[0]);
        if (expr.text == "!") {
          return static_cast<std::int64_t>(!truthy(operand, expr.line));
        }
        if (std::holds_alternative<double>(operand)) {
          return -std::get<double>(operand);
        }
        return wrap(0 - bits(as_int(operand, expr.line)));
      }
      case ExprKind::kBinary:
        return eval_binary(expr);
      case ExprKind::kCall:
        return eval_call(expr);
    }
    fail(expr.line, "unreachable expression kind");
  }

  Value eval_binary(const Expr& expr) {
    const std::string& op = expr.text;
    if (op == "&&") {
      if (!truthy(eval(*expr.children[0]), expr.line)) return std::int64_t{0};
      return static_cast<std::int64_t>(
          truthy(eval(*expr.children[1]), expr.line));
    }
    if (op == "||") {
      if (truthy(eval(*expr.children[0]), expr.line)) return std::int64_t{1};
      return static_cast<std::int64_t>(
          truthy(eval(*expr.children[1]), expr.line));
    }
    Value lhs = eval(*expr.children[0]);
    Value rhs = eval(*expr.children[1]);
    // String concatenation with '+'.
    if (op == "+" && (std::holds_alternative<std::string>(lhs) ||
                      std::holds_alternative<std::string>(rhs))) {
      auto to_str = [&](const Value& v) -> std::string {
        if (const auto* s = std::get_if<std::string>(&v)) return *s;
        if (const auto* i = std::get_if<std::int64_t>(&v)) {
          return std::to_string(*i);
        }
        return std::to_string(std::get<double>(v));
      };
      return to_str(lhs) + to_str(rhs);
    }
    const bool floating = std::holds_alternative<double>(lhs) ||
                          std::holds_alternative<double>(rhs);
    if (floating) {
      const double a = as_double(lhs, expr.line);
      const double b = as_double(rhs, expr.line);
      if (op == "+") return a + b;
      if (op == "-") return a - b;
      if (op == "*") return a * b;
      if (op == "/") {
        if (b == 0.0) fail(expr.line, "division by zero");
        return a / b;
      }
      if (op == "%") fail(expr.line, "'%' on floating operands");
      if (op == "<") return static_cast<std::int64_t>(a < b);
      if (op == "<=") return static_cast<std::int64_t>(a <= b);
      if (op == ">") return static_cast<std::int64_t>(a > b);
      if (op == ">=") return static_cast<std::int64_t>(a >= b);
      if (op == "==") return static_cast<std::int64_t>(a == b);
      if (op == "!=") return static_cast<std::int64_t>(a != b);
    } else {
      const std::int64_t a = as_int(lhs, expr.line);
      const std::int64_t b = as_int(rhs, expr.line);
      if (op == "+") return wrap(bits(a) + bits(b));
      if (op == "-") return wrap(bits(a) - bits(b));
      if (op == "*") return wrap(bits(a) * bits(b));
      // Dividing by -1 is a wrapping negation: INT64_MIN / -1 ==
      // INT64_MIN and INT64_MIN % -1 == 0 (the hardware ops trap).
      if (op == "/") {
        if (b == 0) fail(expr.line, "division by zero");
        return b == -1 ? wrap(0 - bits(a)) : a / b;
      }
      if (op == "%") {
        if (b == 0) fail(expr.line, "modulo by zero");
        return b == -1 ? 0 : a % b;
      }
      if (op == "<") return static_cast<std::int64_t>(a < b);
      if (op == "<=") return static_cast<std::int64_t>(a <= b);
      if (op == ">") return static_cast<std::int64_t>(a > b);
      if (op == ">=") return static_cast<std::int64_t>(a >= b);
      if (op == "==") return static_cast<std::int64_t>(a == b);
      if (op == "!=") return static_cast<std::int64_t>(a != b);
    }
    fail(expr.line, "unknown operator " + op);
  }

  // --- calls ---------------------------------------------------------------

  Value eval_call(const Expr& call) {
    std::vector<Value> args;
    args.reserve(call.children.size());
    for (const auto& arg : call.children) args.push_back(eval(*arg));

    // User-defined functions shadow nothing; builtins are checked first.
    if (const Function* fn = program_.find(call.text)) {
      if (fn->params.size() != args.size()) {
        fail(call.line, "arity mismatch calling " + call.text);
      }
      if (++call_depth_ > 64) fail(call.line, "call depth exceeded");
      scopes_.emplace_back();
      for (std::size_t i = 0; i < args.size(); ++i) {
        scopes_.back().emplace(fn->params[i].second, args[i]);
      }
      std::optional<Value> ret = exec_block(*fn->body);
      scopes_.pop_back();
      --call_depth_;
      return ret.value_or(Value(std::int64_t{0}));
    }
    return call_builtin(call, args);
  }

  void need_args(const Expr& call, std::size_t n) {
    if (call.children.size() != n) {
      fail(call.line, call.text + " expects " + std::to_string(n) +
                          " argument(s)");
    }
  }

  /// Translates a program path into a simulator path; the bool is true
  /// when the path lands on the memory tier.
  std::pair<std::string, bool> resolve_path(const std::string& raw) {
    return {wl::run_path(raw),
            raw.rfind(discovery::kMemoryPathPrefix, 0) == 0};
  }

  std::vector<h5::Selection> slab_selections(std::uint64_t per_rank,
                                             std::uint64_t base = 0) {
    std::vector<h5::Selection> selections;
    selections.reserve(mpi_.size());
    for (unsigned r = 0; r < mpi_.size(); ++r) {
      selections.push_back({r, base + r * per_rank, per_rank});
    }
    return selections;
  }

  /// One collective dataset transfer, metered as its own read or write
  /// phase.
  void transfer(bool is_write, std::uint32_t dataset,
                const std::vector<h5::Selection>& selections) {
    exec_.phase(is_write ? trace::Phase::kWrite : trace::Phase::kRead);
    if (is_write) {
      exec_.write(dataset, selections, /*collective=*/true);
    } else {
      exec_.read(dataset, selections, /*collective=*/true);
    }
    exec_.phase(trace::Phase::kOther);
  }

  std::vector<h5::Selection> strided_selections(std::uint64_t block,
                                                std::uint64_t elems) {
    std::vector<h5::Selection> selections;
    selections.reserve(mpi_.size());
    for (unsigned r = 0; r < mpi_.size(); ++r) {
      selections.push_back({r, (block * mpi_.size() + r) * elems, elems});
    }
    return selections;
  }

  std::uint32_t file_handle(const Value& v, int line) {
    const std::int64_t handle = as_int(v, line);
    if (handle < 0 || static_cast<std::size_t>(handle) >= exec_.num_files()) {
      fail(line, "bad file handle");
    }
    return static_cast<std::uint32_t>(handle);
  }

  std::uint32_t dataset_handle(const Value& v, int line) {
    const std::int64_t handle = as_int(v, line);
    if (handle < 0 ||
        static_cast<std::size_t>(handle) >= exec_.num_datasets()) {
      fail(line, "bad dataset handle");
    }
    return static_cast<std::uint32_t>(handle);
  }

  Value call_builtin(const Expr& call, std::vector<Value>& args) {
    const std::string& name = call.text;
    const int line = call.line;

    if (name == "h5fcreate" || name == "h5fopen") {
      need_args(call, 1);
      const auto [path, memory_tier] = resolve_path(as_string(args[0], line));
      return std::int64_t{exec_.create_file(path, memory_tier)};
    }
    if (name == "h5fclose") {
      need_args(call, 1);
      exec_.close_file(file_handle(args[0], line));
      return std::int64_t{0};
    }
    if (name == "h5set_chunking") {
      need_args(call, 1);
      pending_chunk_elements_ = as_int(args[0], line);
      return std::int64_t{0};
    }
    if (name == "h5dcreate") {
      need_args(call, 4);
      const std::uint32_t file = file_handle(args[0], line);
      return std::int64_t{exec_.create_dataset(
          file, as_string(args[1], line),
          static_cast<Bytes>(as_int(args[2], line)),
          static_cast<std::uint64_t>(as_int(args[3], line)),
          static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, pending_chunk_elements_)))};
    }
    if (name == "h5dopen") {
      need_args(call, 2);
      const std::uint32_t file = file_handle(args[0], line);
      return std::int64_t{
          exec_.open_dataset(file, as_string(args[1], line))};
    }
    if (name == "h5dclose") {
      need_args(call, 1);
      exec_.flush_dataset(dataset_handle(args[0], line));
      return std::int64_t{0};
    }
    if (name == "h5dwrite_all" || name == "h5dread_all") {
      need_args(call, 2);
      const std::uint32_t ds = dataset_handle(args[0], line);
      const auto per_rank = static_cast<std::uint64_t>(as_int(args[1], line));
      transfer(name == "h5dwrite_all", ds, slab_selections(per_rank));
      return std::int64_t{0};
    }
    if (name == "h5dwrite_strided" || name == "h5dread_strided") {
      need_args(call, 3);
      const std::uint32_t ds = dataset_handle(args[0], line);
      const auto block = static_cast<std::uint64_t>(as_int(args[1], line));
      const auto elems = static_cast<std::uint64_t>(as_int(args[2], line));
      transfer(name == "h5dwrite_strided", ds,
               strided_selections(block, elems));
      return std::int64_t{0};
    }
    if (name == "fprintf_log") {
      need_args(call, 2);
      const auto [path, memory_tier] = resolve_path(as_string(args[0], line));
      exec_.phase(trace::Phase::kWrite);
      exec_.log_write(path, static_cast<Bytes>(as_int(args[1], line)),
                      memory_tier);
      exec_.phase(trace::Phase::kOther);
      return std::int64_t{0};
    }
    if (name == "compute") {
      need_args(call, 1);
      const double seconds = as_double(args[0], line);
      if (seconds > 0.0) exec_.compute(seconds, compute_salt_++);
      return std::int64_t{0};
    }
    if (name == "mpi_size") {
      need_args(call, 0);
      return static_cast<std::int64_t>(mpi_.size());
    }
    if (name == "mpi_barrier") {
      need_args(call, 0);
      exec_.barrier();
      return std::int64_t{0};
    }
    if (name == "tuned_stripe_count") {
      // Reading a tuned_* builtin makes the kernel settings-dependent: its
      // op stream may differ per configuration, so the replay fast path must
      // not be used (replay::settings_dependent detects these statically).
      need_args(call, 0);
      return static_cast<std::int64_t>(settings_.lustre.stripe_count.value_or(
          fs_.profile().default_stripe_count));
    }
    if (name == "tuned_stripe_size_kib") {
      need_args(call, 0);
      const Bytes stripe = settings_.lustre.stripe_size.value_or(
          fs_.profile().default_stripe_size);
      return static_cast<std::int64_t>(stripe / 1024);
    }
    if (name == "tuned_cb_nodes") {
      need_args(call, 0);
      return static_cast<std::int64_t>(settings_.mpiio.cb_nodes);
    }
    if (name == "min" || name == "max") {
      need_args(call, 2);
      const std::int64_t a = as_int(args[0], line);
      const std::int64_t b = as_int(args[1], line);
      return name == "min" ? std::min(a, b) : std::max(a, b);
    }
    if (name == "reduced_iters") {
      need_args(call, 2);
      const std::int64_t n = as_int(args[0], line);
      const std::int64_t divisor = std::max<std::int64_t>(
          1, as_int(args[1], line));
      const std::int64_t reduced = std::max<std::int64_t>(1, n / divisor);
      reduction_factors_[&call] =
          static_cast<double>(n) / static_cast<double>(reduced);
      return reduced;
    }
    fail(line, "unknown function " + name);
  }

  const Program& program_;
  mpisim::MpiSim& mpi_;
  pfs::PfsSimulator& fs_;
  const cfg::StackSettings& settings_;
  InterpOptions options_;
  wl::OpExecutor exec_;

  std::vector<std::unordered_map<std::string, Value>> scopes_;
  std::int64_t pending_chunk_elements_ = 0;
  unsigned compute_salt_ = 0;
  int call_depth_ = 0;
  std::map<const Expr*, double> reduction_factors_;
};

}  // namespace

InterpResult execute(const Program& program, mpisim::MpiSim& mpi,
                     pfs::PfsSimulator& fs,
                     const cfg::StackSettings& settings,
                     const InterpOptions& options) {
  return Interpreter(program, mpi, fs, settings, options).run();
}

}  // namespace tunio::interp
