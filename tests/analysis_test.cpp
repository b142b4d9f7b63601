// Tests for the static I/O analysis layer: CFG construction, reaching
// definitions, def-use chains, the backward slicer, the anti-pattern
// linter (including exact line/column numbers), and the lint-hint path
// into Smart Configuration Generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "analysis/cfg.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/lint.hpp"
#include "analysis/slicer.hpp"
#include "common/error.hpp"
#include "config/space.hpp"
#include "core/smart_config.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "workloads/ops.hpp"
#include "workloads/sources.hpp"

namespace tunio::analysis {
namespace {

minic::Program parse(const std::string& source) {
  return minic::parse(source);
}

const minic::Function& fn(const minic::Program& program,
                          const std::string& name) {
  const minic::Function* f = program.find(name);
  EXPECT_NE(f, nullptr) << "no function " << name;
  return *f;
}

// --- CFG -------------------------------------------------------------------

TEST(Cfg, StraightLineChain) {
  const minic::Program program = parse(R"(
    int main()
    {
      int a = 1;
      a = a + 1;
      return a;
    }
  )");
  const FunctionCfg cfg = build_cfg(fn(program, "main"));
  // entry, exit, decl, assign, return.
  EXPECT_EQ(cfg.num_nodes(), 5);
  // entry -> decl -> assign -> return -> exit; no fall-through past return.
  int node = FunctionCfg::kEntry;
  for (int hops = 0; hops < 3; ++hops) {
    ASSERT_EQ(cfg.successors(node).size(), 1u);
    node = cfg.successors(node)[0];
  }
  ASSERT_EQ(cfg.successors(node).size(), 1u);
  EXPECT_EQ(cfg.successors(node)[0], FunctionCfg::kExit);
}

TEST(Cfg, WhileLoopHasBackEdge) {
  const minic::Program program = parse(R"(
    int main()
    {
      int n = 4;
      while (n > 0)
      {
        n = n - 1;
      }
      return n;
    }
  )");
  const FunctionCfg cfg = build_cfg(fn(program, "main"));
  // Find the while node (it owns the condition).
  int while_node = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt != nullptr && stmt->kind == minic::StmtKind::kWhile) {
      while_node = node;
    }
  }
  ASSERT_GE(while_node, 0);
  // Two predecessors: the decl before the loop and the body assignment.
  EXPECT_EQ(cfg.predecessors(while_node).size(), 2u);
  // Two successors: the loop body and the statement after the loop.
  EXPECT_EQ(cfg.successors(while_node).size(), 2u);
}

TEST(Cfg, ForLoopWiresInitCondUpdate) {
  const minic::Program program = parse(R"(
    int main()
    {
      int sum = 0;
      for (int i = 0; i < 3; i = i + 1)
      {
        sum = sum + i;
      }
      return sum;
    }
  )");
  const FunctionCfg cfg = build_cfg(fn(program, "main"));
  int for_node = -1, init_node = -1, update_node = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt == nullptr) continue;
    if (stmt->kind == minic::StmtKind::kFor) for_node = node;
    if (stmt->kind == minic::StmtKind::kDecl && stmt->name == "i") {
      init_node = node;
    }
    if (stmt->kind == minic::StmtKind::kAssign && stmt->name == "i") {
      update_node = node;
    }
  }
  ASSERT_GE(for_node, 0);
  ASSERT_GE(init_node, 0);
  ASSERT_GE(update_node, 0);
  // init -> cond; update -> cond (the back edge).
  const auto& init_succ = cfg.successors(init_node);
  ASSERT_EQ(init_succ.size(), 1u);
  EXPECT_EQ(init_succ[0], for_node);
  const auto& update_succ = cfg.successors(update_node);
  ASSERT_EQ(update_succ.size(), 1u);
  EXPECT_EQ(update_succ[0], for_node);
}

TEST(Cfg, IfWithoutElseFallsThrough) {
  const minic::Program program = parse(R"(
    int main()
    {
      int x = 0;
      if (x > 0)
      {
        x = 1;
      }
      return x;
    }
  )");
  const FunctionCfg cfg = build_cfg(fn(program, "main"));
  int if_node = -1, ret_node = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt == nullptr) continue;
    if (stmt->kind == minic::StmtKind::kIf) if_node = node;
    if (stmt->kind == minic::StmtKind::kReturn) ret_node = node;
  }
  ASSERT_GE(if_node, 0);
  ASSERT_GE(ret_node, 0);
  // The return joins both paths: then-branch and the false edge.
  EXPECT_EQ(cfg.predecessors(ret_node).size(), 2u);
}

// --- reaching definitions & def-use ---------------------------------------

TEST(ReachingDefs, ReassignmentKillsEarlierDef) {
  const minic::Program program = parse(R"(
    int main()
    {
      int x = 1;
      x = 2;
      return x;
    }
  )");
  const minic::Function& main_fn = fn(program, "main");
  const FunctionCfg cfg = build_cfg(main_fn);
  const ReachingDefinitions rd(main_fn, cfg);
  int ret_node = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt != nullptr && stmt->kind == minic::StmtKind::kReturn) {
      ret_node = node;
    }
  }
  ASSERT_GE(ret_node, 0);
  const std::vector<int> defs = rd.reaching(ret_node, "x");
  ASSERT_EQ(defs.size(), 1u);  // the decl is killed by the assignment
  const minic::Stmt* def_stmt =
      cfg.stmt_of(rd.definitions()[defs[0]].node);
  ASSERT_NE(def_stmt, nullptr);
  EXPECT_EQ(def_stmt->kind, minic::StmtKind::kAssign);
}

TEST(ReachingDefs, LoopBackEdgeMergesDefinitions) {
  const minic::Program program = parse(R"(
    int main()
    {
      int n = 4;
      while (n > 0)
      {
        n = n - 1;
      }
      return n;
    }
  )");
  const minic::Function& main_fn = fn(program, "main");
  const FunctionCfg cfg = build_cfg(main_fn);
  const ReachingDefinitions rd(main_fn, cfg);
  int while_node = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt != nullptr && stmt->kind == minic::StmtKind::kWhile) {
      while_node = node;
    }
  }
  ASSERT_GE(while_node, 0);
  // At the condition both the initial decl and the in-loop assignment
  // reach (the back edge carries the latter).
  EXPECT_EQ(rd.reaching(while_node, "n").size(), 2u);
}

TEST(DefUse, DeadStoreHasEmptyUseSet) {
  const minic::Program program = parse(R"(
    int main()
    {
      int x = 1;
      int y = x + 1;
      x = 99;
      return y;
    }
  )");
  const minic::Function& main_fn = fn(program, "main");
  const FunctionCfg cfg = build_cfg(main_fn);
  const ReachingDefinitions rd(main_fn, cfg);
  const DefUseChains chains = build_def_use(main_fn, cfg, rd);
  int dead_id = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt != nullptr && stmt->kind == minic::StmtKind::kAssign &&
        stmt->name == "x") {
      dead_id = stmt->id;
    }
  }
  ASSERT_GE(dead_id, 0);
  EXPECT_TRUE(chains.uses_of_def(dead_id).empty());
  // The live decl of x feeds y's initializer.
  EXPECT_FALSE(chains.def_to_uses.empty());
}

TEST(DefUse, UseSeesDefsFromBothBranches) {
  const minic::Program program = parse(R"(
    int main()
    {
      int x = 0;
      int c = 1;
      if (c > 0)
      {
        x = 1;
      }
      else
      {
        x = 2;
      }
      return x;
    }
  )");
  const minic::Function& main_fn = fn(program, "main");
  const FunctionCfg cfg = build_cfg(main_fn);
  const ReachingDefinitions rd(main_fn, cfg);
  const DefUseChains chains = build_def_use(main_fn, cfg, rd);
  int ret_id = -1;
  for (int node = 0; node < cfg.num_nodes(); ++node) {
    const minic::Stmt* stmt = cfg.stmt_of(node);
    if (stmt != nullptr && stmt->kind == minic::StmtKind::kReturn) {
      ret_id = stmt->id;
    }
  }
  ASSERT_GE(ret_id, 0);
  // Both branch assignments reach the return; the decl is killed on
  // both paths.
  EXPECT_EQ(chains.defs_of_use(ret_id).size(), 2u);
}

// --- slicer ---------------------------------------------------------------

TEST(Slicer, DropsReassignmentAfterLastIoUse) {
  const minic::Program program = parse(R"(
    int main()
    {
      int n = 4;
      int f = h5fcreate("/f.h5");
      int ds = h5dcreate(f, "x", 4, n);
      h5dwrite_all(ds, n);
      h5fclose(f);
      n = 99;
      return 0;
    }
  )");
  const SliceResult slice = slice_io(program, {"h5"});
  const std::string kernel = minic::print(program, [&](const minic::Stmt& s) {
    return slice.kept.count(s.id) > 0;
  });
  EXPECT_NE(kernel.find("int n = 4;"), std::string::npos);
  // The post-I/O reassignment can reach no use: sliced away. (The legacy
  // marker keeps it — this is exactly the slicer's precision win.)
  EXPECT_EQ(kernel.find("n = 99;"), std::string::npos);
}

TEST(Slicer, KeepsDefinitionsFromBothBranches) {
  const minic::Program program = parse(R"(
    int main()
    {
      int n = 0;
      int mode = 1;
      if (mode > 0)
      {
        n = 1024;
      }
      else
      {
        n = 2048;
      }
      int f = h5fcreate("/f.h5");
      int ds = h5dcreate(f, "x", 4, n);
      h5dwrite_all(ds, n);
      h5fclose(f);
      return 0;
    }
  )");
  const SliceResult slice = slice_io(program, {"h5"});
  const std::string kernel = minic::print(program, [&](const minic::Stmt& s) {
    return slice.kept.count(s.id) > 0;
  });
  EXPECT_NE(kernel.find("n = 1024;"), std::string::npos);
  EXPECT_NE(kernel.find("n = 2048;"), std::string::npos);
  EXPECT_NE(kernel.find("int mode = 1;"), std::string::npos);
}

TEST(Slicer, ShadowedNamesAcrossFunctionsStayDistinct) {
  const minic::Program program = parse(R"(
    int helper(int n)
    {
      int local = n * 2;
      return local;
    }
    int main()
    {
      int local = 4;
      int f = h5fcreate("/f.h5");
      int ds = h5dcreate(f, "x", 4, local);
      h5dwrite_all(ds, local);
      h5fclose(f);
      int waste = helper(local);
      return 0;
    }
  )");
  const SliceResult slice = slice_io(program, {"h5"});
  const std::string kernel = minic::print(program, [&](const minic::Stmt& s) {
    return slice.kept.count(s.id) > 0;
  });
  // main's `local` feeds I/O and survives; helper's same-named variable
  // belongs to a dead function and must not be dragged in by its name.
  EXPECT_NE(kernel.find("int local = 4;"), std::string::npos);
  EXPECT_EQ(kernel.find("local = n * 2"), std::string::npos);
  EXPECT_EQ(kernel.find("waste"), std::string::npos);
  EXPECT_EQ(slice.live_functions.count("helper"), 0u);
}

TEST(Slicer, ElseBranchOnlyIoKeepsElseDropsThen) {
  const minic::Program program = parse(R"(
    int main()
    {
      int mode = 0;
      if (mode > 0)
      {
        int a = 1;
        a = a + 1;
      }
      else
      {
        int f = h5fcreate("/f.h5");
        h5fclose(f);
      }
      return 0;
    }
  )");
  const SliceResult slice = slice_io(program, {"h5"});
  const std::string kernel = minic::print(program, [&](const minic::Stmt& s) {
    return slice.kept.count(s.id) > 0;
  });
  EXPECT_NE(kernel.find("h5fcreate"), std::string::npos);
  EXPECT_NE(kernel.find("int mode = 0;"), std::string::npos);
  EXPECT_EQ(kernel.find("a = a + 1;"), std::string::npos);
}

TEST(Slicer, RejectsProgramWithoutMain) {
  const minic::Program program = parse(R"(
    int helper()
    {
      return 0;
    }
  )");
  EXPECT_THROW(slice_io(program, {"h5"}), Error);
}

// --- linter ---------------------------------------------------------------

TEST(Lint, SmallWritesInLoopWithLineAndColumn) {
  const LintReport report = lint_source(
      R"(int main()
{
  for (int i = 0; i < 10; i = i + 1)
  {
    fprintf_log("/log.txt", 128);
  }
  return 0;
})");
  ASSERT_EQ(report.count(LintKind::kSmallWritesInLoop), 1u);
  const Diagnostic& d = report.diagnostics[0];
  EXPECT_EQ(d.kind, LintKind::kSmallWritesInLoop);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.line, 5);
  EXPECT_EQ(d.column, 5);
  EXPECT_EQ(d.function, "main");
  EXPECT_NE(std::find(d.hint_params.begin(), d.hint_params.end(),
                      "cb_buffer_size"),
            d.hint_params.end());
}

TEST(Lint, OpenCloseAndCreateOverwriteInLoop) {
  const LintReport report = lint_source(
      R"(int main()
{
  for (int i = 0; i < 4; i = i + 1)
  {
    int f = h5fcreate("/same.h5");
    h5fclose(f);
  }
  return 0;
})");
  EXPECT_EQ(report.count(LintKind::kOpenCloseInLoop), 2u);
  ASSERT_EQ(report.count(LintKind::kCreateOverwriteInLoop), 1u);
  EXPECT_TRUE(report.has_errors());
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == LintKind::kCreateOverwriteInLoop) {
      EXPECT_EQ(d.severity, Severity::kError);
      EXPECT_EQ(d.line, 5);
      EXPECT_EQ(d.column, 13);
    }
  }

  // The abstract interpreter cannot analyze a recursive helper, so the
  // program has no static cost and no size-based finding: the 98304-byte
  // strided block goes unjudged, while the loop and open/close findings
  // remain. The same program is a CI input under tests/data/.
  const LintReport recursive = lint_source(
      R"(int fill(int file, int depth)
{
  if (depth > 0)
  {
    fill(file, depth - 1);
  }
  int ds = h5dcreate(file, "x" + depth, 8, 1048576);
  h5dwrite_strided(ds, depth, 12288);
  h5dclose(ds);
  return 0;
}

int main()
{
  for (int i = 0; i < 4; i = i + 1)
  {
    int file = h5fcreate("/scratch/lint_recursive" + i);
    fill(file, 2);
    h5fclose(file);
  }
  return 0;
})");
  EXPECT_FALSE(recursive.cost.analyzable);
  EXPECT_EQ(recursive.count(LintKind::kOpenCloseInLoop), 2u);
  EXPECT_EQ(recursive.count(LintKind::kIndependentIoInLoop), 1u);
  EXPECT_EQ(recursive.count(LintKind::kStripeUnalignedAccess), 0u);
  EXPECT_EQ(recursive.diagnostics.size(), 3u);
}

TEST(Lint, StripeUnalignedChunkAndStridedBlock) {
  const LintReport report = lint_source(
      R"(int main()
{
  int f = h5fcreate("/c.h5");
  h5set_chunking(12288);
  int ds = h5dcreate(f, "x", 8, 1048576);
  for (int i = 0; i < 8; i = i + 1)
  {
    h5dwrite_strided(ds, i, 12288);
  }
  h5fclose(f);
  return 0;
})");
  // 12288 elements x 8 bytes = 98304 B: flagged at the chunking call and
  // at the strided write.
  ASSERT_EQ(report.count(LintKind::kStripeUnalignedAccess), 2u);
  EXPECT_EQ(report.count(LintKind::kIndependentIoInLoop), 1u);
  EXPECT_FALSE(report.has_errors());
  std::set<int> lines;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == LintKind::kStripeUnalignedAccess) lines.insert(d.line);
  }
  EXPECT_EQ(lines, (std::set<int>{4, 8}));
}

TEST(Lint, DeadWriteFlagsOnlyUnreadAssignment) {
  const LintReport report = lint_source(
      R"(int main()
{
  int x = 1;
  x = 2;
  int f = h5fcreate("/d.h5");
  int ds = h5dcreate(f, "v", 4, x);
  h5dwrite_all(ds, x);
  x = 99;
  h5fclose(f);
  return 0;
})");
  ASSERT_EQ(report.count(LintKind::kDeadWrite), 1u);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == LintKind::kDeadWrite) {
      EXPECT_EQ(d.line, 8);
      EXPECT_EQ(d.column, 3);
      EXPECT_NE(d.message.find("'x'"), std::string::npos);
    }
  }
}

TEST(Lint, ContiguousLargeAccessIsInfo) {
  const LintReport report = lint_source(
      R"(int main()
{
  int np = 2097152;
  int f = h5fcreate("/h.h5");
  int ds = h5dcreate(f, "p", 4, np * mpi_size());
  h5dwrite_all(ds, np);
  h5fclose(f);
  return 0;
})");
  ASSERT_EQ(report.count(LintKind::kContiguousLargeAccess), 1u);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.kind == LintKind::kContiguousLargeAccess) {
      EXPECT_EQ(d.severity, Severity::kInfo);
      EXPECT_EQ(d.line, 6);
      EXPECT_NE(std::find(d.hint_params.begin(), d.hint_params.end(),
                          "striping_factor"),
                d.hint_params.end());
    }
  }
  EXPECT_FALSE(report.has_errors());
}

TEST(Lint, CleanProgramYieldsNoDiagnostics) {
  // One aligned, mid-sized (1 MiB) contiguous write outside any loop:
  // neither small, nor large, nor unaligned, nor churning metadata.
  const LintReport report = lint_source(
      R"(int main()
{
  int f = h5fcreate("/ok.h5");
  int ds = h5dcreate(f, "x", 8, 131072);
  h5dwrite_all(ds, 131072);
  h5fclose(f);
  return 0;
})");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_TRUE(report.tuning_hints().empty());
}

TEST(Lint, WorkloadSourcesCoverAtLeastFiveKinds) {
  using namespace wl::sources;
  std::set<LintKind> kinds;
  for (const std::string& source :
       {macsio_vpic(), vpic(), flash(), hacc(), bdcats()}) {
    const LintReport report = lint_source(source);
    // The built-in workloads carry intentional anti-patterns, but none
    // at error severity (the CI lint gate must stay green on them).
    EXPECT_FALSE(report.has_errors());
    for (const Diagnostic& d : report.diagnostics) kinds.insert(d.kind);
  }
  EXPECT_GE(kinds.size(), 5u);
}

TEST(Lint, FormatIncludesLocationSeverityKindAndHints) {
  Diagnostic d;
  d.kind = LintKind::kSmallWritesInLoop;
  d.severity = Severity::kWarning;
  d.line = 12;
  d.column = 7;
  d.function = "main";
  d.message = "msg";
  d.hint_params = {"cb_buffer_size", "sieve_buf_size"};
  EXPECT_EQ(format(d),
            "main:12:7: warning: small-writes-in-loop: msg "
            "[hints: cb_buffer_size, sieve_buf_size]");
}

TEST(Lint, TuningHintsAreSeverityWeightedAndNormalized) {
  const LintReport report = lint_source(wl::sources::flash());
  const auto hints = report.tuning_hints();
  ASSERT_FALSE(hints.empty());
  EXPECT_DOUBLE_EQ(hints.front().second, 1.0);  // max normalized to 1
  for (const auto& [param, weight] : hints) {
    EXPECT_GT(weight, 0.0);
    EXPECT_LE(weight, 1.0);
  }
  // Descending order.
  for (std::size_t i = 1; i < hints.size(); ++i) {
    EXPECT_GE(hints[i - 1].second, hints[i].second);
  }
}

TEST(Lint, FoldTreatsInt64OverflowAsNotConstant) {
  // Folded on raw int64, INT64_MIN / -1 trapped (SIGFPE) and these
  // products overflowed (undefined behaviour). A size outside int64 is
  // not a constant, so no size-based diagnostic fires on either. The
  // same programs are CI inputs under tests/data/.
  const LintReport div = lint_source(R"(int main()
{
  int file = h5fcreate("/scratch/fold_div.h5");
  int ds = h5dcreate(file, "d", 8, 1024);
  for (int i = 0; i < 4; i = i + 1)
  {
    h5dwrite_strided(ds, i, (0 - 9223372036854775807 - 1) / (0 - 1));
  }
  h5dclose(ds);
  h5fclose(file);
  return 0;
})");
  EXPECT_EQ(div.count(LintKind::kIndependentIoInLoop), 1u);
  EXPECT_EQ(div.count(LintKind::kStripeUnalignedAccess), 0u);

  const LintReport mul = lint_source(R"(int main()
{
  int file = h5fcreate("/scratch/fold_mul.h5");
  int ds = h5dcreate(file, "d", 8, 1024);
  int n = 3037000500 * 3037000500;
  for (int i = 0; i < 4; i = i + 1)
  {
    h5dwrite_strided(ds, i, n);
    h5dwrite_strided(ds, i, 2305843009213693952);
  }
  h5dclose(ds);
  h5fclose(file);
  return 0;
})");
  EXPECT_EQ(mul.count(LintKind::kIndependentIoInLoop), 2u);
  EXPECT_EQ(mul.count(LintKind::kStripeUnalignedAccess), 0u);
  EXPECT_EQ(mul.count(LintKind::kSmallWritesInLoop), 0u);
}

TEST(Lint, WorkloadSourceReportsArePinned) {
  // flash_tunio and bdcats_service tune from these hints, so the
  // linter's whole output on the built-in sources is pinned: FNV-1a over
  // every format() line and every tuning_hints() name with its weight's
  // bits. A moved threshold, message or weight changes the hash.
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const auto add = [&hash](const std::string& text) {
    for (const unsigned char c : text) hash = (hash ^ c) * 0x100000001B3ull;
    hash = (hash ^ '\n') * 0x100000001B3ull;
  };
  using namespace wl::sources;
  for (const std::string& source :
       {macsio_vpic(), vpic(), flash(), hacc(), bdcats()}) {
    const LintReport report = lint_source(source);
    for (const Diagnostic& d : report.diagnostics) add(format(d));
    for (const auto& [param, weight] : report.tuning_hints()) {
      add(param + "=" +
          std::to_string(std::bit_cast<std::uint64_t>(weight)));
    }
  }
  EXPECT_EQ(hash, 0x4054927A35451283ull);
}

// --- builtin resolution ----------------------------------------------------

// A function the program defines shadows the builtin of that name in the
// interpreter, the cost model and the linter alike: the loop calls the
// program's own h5fcreate, so it creates no file and issues no op.
TEST(Builtins, ProgramFunctionShadowsBuiltinEverywhere) {
  std::ifstream in(std::string(TUNIO_TEST_DATA_DIR) +
                   "/lint_shadowed_builtin.mc");
  ASSERT_TRUE(in) << "missing lint_shadowed_builtin.mc";
  std::stringstream text;
  text << in.rdbuf();
  const minic::Program program = parse(text.str());

  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  const interp::InterpResult run =
      interp::execute(program, mpi, fs, cfg::default_settings());
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_FALSE(fs.find_file(wl::run_path("/scratch/out.h5")).has_value());
  EXPECT_EQ(run.perf.counters.metadata_ops, 0u);
  EXPECT_EQ(fs.counters().metadata_ops, 0u);

  const ProgramCost cost = predict_cost(program);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_TRUE(cost.sites.empty());
  EXPECT_EQ(cost.file_opens, Interval::constant(0));
  EXPECT_EQ(cost.write_ops, Interval::constant(0));
  EXPECT_EQ(cost.read_ops, Interval::constant(0));

  const LintReport report = lint(program);
  EXPECT_EQ(report.count(LintKind::kOpenCloseInLoop), 0u);
  EXPECT_EQ(report.count(LintKind::kCreateOverwriteInLoop), 0u);
  EXPECT_FALSE(report.has_errors());
}

// --- hints -> Smart Configuration Generation -------------------------------

TEST(Hints, ApplyHintsPromotesParameterInRanking) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  core::SmartConfigGen gen(space);
  const std::size_t target = space.index_of("romio_collective");
  // Uniform untrained impact: a hint must put the parameter on top.
  gen.apply_hints({{"romio_collective", 1.0}, {"no_such_param", 0.9}});
  EXPECT_EQ(gen.ranking().front(), target);
  // Impact still sums to 1.
  double total = 0.0;
  for (double x : gen.impact_scores()) total += x;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Hints, RepeatedApplicationKeepsStrongestBoost) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  core::SmartConfigGen gen(space);
  gen.apply_hints({{"cb_nodes", 0.4}});
  gen.apply_hints({{"cb_nodes", 0.2}});  // weaker: must not downgrade
  const std::size_t idx = space.index_of("cb_nodes");
  EXPECT_DOUBLE_EQ(gen.hint_boosts()[idx], 0.4);
  // Out-of-range weights are clamped into [0, 1].
  gen.apply_hints({{"cb_nodes", 7.5}});
  EXPECT_DOUBLE_EQ(gen.hint_boosts()[idx], 1.0);
}

TEST(Hints, LintReportFeedsRankingEndToEnd) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  core::SmartConfigGen gen(space);
  const LintReport report = lint_source(wl::sources::flash());
  gen.apply_hints(report.tuning_hints());
  // flash's dominant findings are stripe misalignment: striping_unit is
  // its strongest hint and must lead the untrained ranking.
  EXPECT_EQ(gen.ranking().front(), space.index_of("striping_unit"));
}

}  // namespace
}  // namespace tunio::analysis
