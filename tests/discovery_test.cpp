// Tests for Application I/O Discovery: the marking loop (I/O calls,
// dependents, backward slices, contextual parents), kernel
// reconstruction, loop reduction and I/O path switching.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/slicer.hpp"
#include "common/error.hpp"
#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "oracles/legacy_marker.hpp"
#include "workloads/sources.hpp"

namespace tunio::discovery {
namespace {

/// The running example of the paper's Figure 5, adapted to mini-C: an
/// H5Dwrite inside a loop, with compute and diagnostics interleaved.
const char* kFigure5Like = R"(
int main()
{
  int dataset_id = 0;
  int file = h5fcreate("/scratch/out.h5");
  double temperature = 300.0;
  double pressure = 1.0;
  int data_ptr = 1024;
  int timesteps = 4;
  dataset_id = h5dcreate(file, "data", 8, data_ptr * timesteps * mpi_size());
  for (int t = 0; t < timesteps; t = t + 1)
  {
    temperature = temperature * 1.01;
    pressure = pressure + 0.1;
    compute(2.0);
    h5dwrite_strided(dataset_id, t, data_ptr);
    fprintf_log("/scratch/diag.log", 64);
  }
  h5dclose(dataset_id);
  h5fclose(file);
  return 0;
}
)";

TEST(Marking, KeepsIoCallsAndTheirDependents) {
  const minic::Program program = minic::parse(kFigure5Like);
  const std::set<int> kept = mark_kept(program, {"h5"});
  const std::string kernel = minic::print(
      program, [&](const minic::Stmt& s) { return kept.count(s.id) > 0; });
  // I/O calls and their dependency chain survive.
  EXPECT_NE(kernel.find("h5fcreate"), std::string::npos);
  EXPECT_NE(kernel.find("h5dcreate"), std::string::npos);
  EXPECT_NE(kernel.find("h5dwrite_strided"), std::string::npos);
  EXPECT_NE(kernel.find("int data_ptr = 1024;"), std::string::npos);
  EXPECT_NE(kernel.find("int dataset_id = 0;"), std::string::npos);
  EXPECT_NE(kernel.find("int timesteps = 4;"), std::string::npos);
  // The contextual parent (the for loop) survives with its header.
  EXPECT_NE(kernel.find("for (int t = 0; t < timesteps; t = t + 1)"),
            std::string::npos);
}

TEST(Marking, DropsComputeAndLogging) {
  const minic::Program program = minic::parse(kFigure5Like);
  const std::set<int> kept = mark_kept(program, {"h5"});
  const std::string kernel = minic::print(
      program, [&](const minic::Stmt& s) { return kept.count(s.id) > 0; });
  EXPECT_EQ(kernel.find("compute"), std::string::npos);
  EXPECT_EQ(kernel.find("fprintf_log"), std::string::npos);
  EXPECT_EQ(kernel.find("temperature"), std::string::npos);
  EXPECT_EQ(kernel.find("pressure"), std::string::npos);
}

TEST(Marking, BackwardSliceFollowsReassignments) {
  const minic::Program program = minic::parse(R"(
    int main()
    {
      int n = 10;
      n = n * 2;
      int unrelated = 99;
      unrelated = unrelated + 1;
      int file = h5fcreate("/f.h5");
      int ds = h5dcreate(file, "x", 4, n);
      h5dwrite_all(ds, n);
      h5fclose(file);
      return 0;
    }
  )");
  const std::set<int> kept = mark_kept(program, {"h5"});
  const std::string kernel = minic::print(
      program, [&](const minic::Stmt& s) { return kept.count(s.id) > 0; });
  // Both assignments of n (an I/O-call dependency) are kept...
  EXPECT_NE(kernel.find("int n = 10;"), std::string::npos);
  EXPECT_NE(kernel.find("n = n * 2;"), std::string::npos);
  // ...while the unrelated variable vanishes entirely.
  EXPECT_EQ(kernel.find("unrelated"), std::string::npos);
}

TEST(Marking, IfConditionIsDependent) {
  const minic::Program program = minic::parse(R"(
    int main()
    {
      int enabled = 1;
      int junk = 5;
      if (enabled > 0)
      {
        int f = h5fcreate("/f.h5");
        h5fclose(f);
      }
      return 0;
    }
  )");
  const std::set<int> kept = mark_kept(program, {"h5"});
  const std::string kernel = minic::print(
      program, [&](const minic::Stmt& s) { return kept.count(s.id) > 0; });
  EXPECT_NE(kernel.find("if (enabled > 0)"), std::string::npos);
  EXPECT_NE(kernel.find("int enabled = 1;"), std::string::npos);
  EXPECT_EQ(kernel.find("junk"), std::string::npos);
}

TEST(Marking, UserIoFunctionsPropagate) {
  const minic::Program program = minic::parse(R"(
    int dump(int n)
    {
      int f = h5fcreate("/f.h5");
      int ds = h5dcreate(f, "x", 4, n);
      h5dwrite_all(ds, n);
      h5fclose(f);
      return 0;
    }
    double science(double x)
    {
      return x * 2.0;
    }
    int main()
    {
      int n = 1000;
      double y = science(3.0);
      y = y + 1.0;
      dump(n);
      return 0;
    }
  )");
  KernelResult result = discover_io(program, {});
  // dump() transitively performs I/O: its call and body survive.
  EXPECT_NE(result.kernel_source.find("dump(n)"), std::string::npos);
  EXPECT_NE(result.kernel_source.find("h5dwrite_all"), std::string::npos);
  // science() is pure compute: the whole function disappears.
  EXPECT_EQ(result.kernel_source.find("science"), std::string::npos);
  EXPECT_EQ(result.kernel.find("science"), nullptr);
  EXPECT_NE(result.kernel.find("dump"), nullptr);
}

TEST(Discovery, StatementCountsAreReported) {
  KernelResult result = discover_io(std::string(kFigure5Like), {});
  EXPECT_GT(result.total_statements, result.kept_statements);
  EXPECT_GT(result.kept_statements, 0);
  EXPECT_EQ(result.loop_reduction_divisor, 1);
}

TEST(Discovery, KernelIsReparsableAndStable) {
  KernelResult result = discover_io(std::string(kFigure5Like), {});
  // The kernel source is valid mini-C and rediscovery is a fixpoint.
  KernelResult again = discover_io(result.kernel_source, {});
  EXPECT_EQ(again.kept_statements, result.kept_statements);
}

TEST(LoopReduction, RewritesIoLoopConditions) {
  DiscoveryOptions options;
  options.loop_reduction = 0.01;  // 1% of iterations, as in Fig. 8(b)
  KernelResult result = discover_io(std::string(kFigure5Like), options);
  EXPECT_EQ(result.loop_reduction_divisor, 100);
  EXPECT_NE(result.kernel_source.find("reduced_iters(timesteps, 100)"),
            std::string::npos);
}

TEST(LoopReduction, LeavesNonIoLoopsAlone) {
  DiscoveryOptions options;
  options.loop_reduction = 0.1;
  // keep the compute loop via manual keep? No: non-I/O loops are dropped
  // by marking anyway; craft a kernel where a kept loop has no I/O.
  const char* source = R"(
    int main()
    {
      int n = 8;
      int f = h5fcreate("/f.h5");
      for (int i = 0; i < n; i = i + 1)
      {
        n = n + 0;
      }
      int ds = h5dcreate(f, "x", 4, n);
      h5dwrite_all(ds, n);
      h5fclose(f);
      return 0;
    }
  )";
  KernelResult result = discover_io(std::string(source), options);
  // The loop assigning n is kept (backward slice) but contains no I/O,
  // so its bound is untouched.
  EXPECT_NE(result.kernel_source.find("i < n"), std::string::npos);
  EXPECT_EQ(result.kernel_source.find("reduced_iters(n"), std::string::npos);
}

TEST(LoopReduction, RejectsBadFraction) {
  DiscoveryOptions options;
  options.loop_reduction = 0.0;
  EXPECT_THROW(discover_io(std::string(kFigure5Like), options), Error);
}

TEST(PathSwitching, RedirectsAllPathLiterals) {
  DiscoveryOptions options;
  options.path_switching = true;
  KernelResult result = discover_io(std::string(kFigure5Like), options);
  EXPECT_NE(result.kernel_source.find("\"/shm/scratch/out.h5\""),
            std::string::npos);
  // Applying twice does not double the prefix.
  KernelResult twice = discover_io(result.kernel_source, options);
  EXPECT_EQ(twice.kernel_source.find("/shm/shm"), std::string::npos);
}

TEST(PathSwitching, RedirectsPathsBuiltInVariables) {
  DiscoveryOptions options;
  options.path_switching = true;
  const char* source = R"(
    int main()
    {
      string base = "/scratch/data_";
      int f = h5fcreate(base + 7 + ".h5");
      h5fclose(f);
      return 0;
    }
  )";
  KernelResult result = discover_io(std::string(source), options);
  EXPECT_NE(result.kernel_source.find("\"/shm/scratch/data_\""),
            std::string::npos);
}

TEST(ManualKeep, ForcesStatementsIntoKernel) {
  const minic::Program program = minic::parse(R"(
    int main()
    {
      double important = 1.5;
      int f = h5fcreate("/f.h5");
      h5fclose(f);
      return 0;
    }
  )");
  // Find the id of the 'important' declaration.
  int decl_id = -1;
  for (const auto& stmt : program.functions[0].body->statements) {
    if (stmt->kind == minic::StmtKind::kDecl && stmt->name == "important") {
      decl_id = stmt->id;
    }
  }
  ASSERT_GE(decl_id, 0);
  DiscoveryOptions options;
  options.manual_keep.insert(decl_id);
  KernelResult result = discover_io(program, options);
  EXPECT_NE(result.kernel_source.find("double important = 1.5;"),
            std::string::npos);
}

TEST(Discovery, WorkloadSourcesProduceKernels) {
  using namespace wl::sources;
  for (const std::string& source :
       {macsio_vpic(), vpic(), flash(), hacc(), bdcats()}) {
    KernelResult result = discover_io(source, {});
    EXPECT_GT(result.kept_statements, 0);
    EXPECT_LT(result.kept_statements, result.total_statements);
    EXPECT_NE(result.kernel.find("main"), nullptr);
    // Every kernel drops the compute statements.
    EXPECT_EQ(result.kernel_source.find("compute("), std::string::npos);
  }
}

TEST(Discovery, ProgramWithoutMainThrows) {
  // The slicer rejects a program without main, and no kernel can be
  // built without one: discovery fails with tunio::Error.
  EXPECT_THROW(discover_io(std::string("int helper() { return 0; }"), {}),
               Error);
}

/// Property: the marking loop is monotone — the kernel of a kernel keeps
/// everything (all remaining statements are I/O-relevant).
class MarkingFixpoint : public ::testing::TestWithParam<int> {};

TEST_P(MarkingFixpoint, KernelOfKernelKeepsAll) {
  const std::string sources[] = {
      wl::sources::macsio_vpic(), wl::sources::vpic(), wl::sources::flash(),
      wl::sources::hacc(), wl::sources::bdcats()};
  const std::string& source = sources[GetParam()];
  KernelResult first = discover_io(source, {});
  KernelResult second = discover_io(first.kernel_source, {});
  EXPECT_EQ(second.kernel_source, first.kernel_source);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MarkingFixpoint,
                         ::testing::Range(0, 5));

// --- marking engines -------------------------------------------------------

/// The source as discover_io sees it after its normalization round-trip,
/// so statement ids match the kernel's kept_stmt_ids.
minic::Program normalized(const std::string& source) {
  return minic::parse(minic::print(minic::parse(source)));
}

TEST(Engines, SlicerIsDefaultAndDoesNotFallBack) {
  KernelResult result = discover_io(std::string(kFigure5Like), {});
  EXPECT_EQ(result.kept_stmt_ids,
            analysis::slice_io(normalized(kFigure5Like), {"h5"}).kept);
}

TEST(Engines, LegacyMarkerCanBeRequested) {
  const std::set<int> legacy = mark_kept(normalized(kFigure5Like), {"h5"});
  // On this source both engines agree; the legacy kept set is never
  // smaller.
  KernelResult precise = discover_io(std::string(kFigure5Like), {});
  EXPECT_TRUE(std::includes(legacy.begin(), legacy.end(),
                            precise.kept_stmt_ids.begin(),
                            precise.kept_stmt_ids.end()));
  EXPECT_GE(legacy.size(), precise.kept_stmt_ids.size());
}

TEST(Engines, SlicerIsStrictlyMorePreciseOnDeadReassignment) {
  const char* source = R"(
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
  )";
  KernelResult precise = discover_io(std::string(source), {});
  const minic::Program program = normalized(source);
  const std::set<int> legacy = mark_kept(program, {"h5"});
  int dead_id = -1;
  for (const auto& stmt : program.functions[0].body->statements) {
    if (stmt->kind == minic::StmtKind::kAssign && stmt->name == "n") {
      dead_id = stmt->id;
    }
  }
  ASSERT_GE(dead_id, 0);
  // The legacy marker keeps the dead `n = 99` (n is a dependent name);
  // the slicer proves it reaches no use.
  EXPECT_EQ(legacy.count(dead_id), 1u);
  EXPECT_EQ(precise.kept_stmt_ids.count(dead_id), 0u);
  EXPECT_EQ(precise.kernel_source.find("n = 99;"), std::string::npos);
  EXPECT_LT(precise.kept_stmt_ids.size(), legacy.size());
}

TEST(Engines, ManualKeepWorksWithSlicer) {
  const minic::Program program = minic::parse(R"(
    int main()
    {
      double important = 1.5;
      int f = h5fcreate("/f.h5");
      h5fclose(f);
      return 0;
    }
  )");
  int decl_id = -1;
  for (const auto& stmt : program.functions[0].body->statements) {
    if (stmt->kind == minic::StmtKind::kDecl && stmt->name == "important") {
      decl_id = stmt->id;
    }
  }
  ASSERT_GE(decl_id, 0);
  DiscoveryOptions options;
  options.manual_keep.insert(decl_id);
  KernelResult result = discover_io(program, options);
  EXPECT_NE(result.kernel_source.find("double important = 1.5;"),
            std::string::npos);
}

/// Differential oracle: on every workload the slicer's kept set is a
/// subset of the legacy marker's (same normalized program, same ids).
class SlicerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SlicerDifferential, SlicerKeptIsSubsetOfLegacyKept) {
  const std::string sources[] = {
      wl::sources::macsio_vpic(), wl::sources::vpic(), wl::sources::flash(),
      wl::sources::hacc(), wl::sources::bdcats()};
  // Mirror discover_io's normalization round-trip so both engines see
  // the exact same statement ids.
  const minic::Program program =
      minic::parse(minic::print(minic::parse(sources[GetParam()])));
  const std::set<int> slicer_kept =
      analysis::slice_io(program, {"h5"}).kept;
  const std::set<int> legacy_kept = mark_kept(program, {"h5"});
  EXPECT_TRUE(std::includes(legacy_kept.begin(), legacy_kept.end(),
                            slicer_kept.begin(), slicer_kept.end()))
      << "slicer kept a statement the legacy marker drops";
  EXPECT_FALSE(slicer_kept.empty());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SlicerDifferential,
                         ::testing::Range(0, 5));

/// Fidelity oracle: for every workload, the slicer kernel performs
/// exactly the same I/O as the full application. Logging is included in
/// the I/O prefixes here because fprintf_log writes through the PFS
/// meter — with the default {"h5"} prefixes the kernel intentionally
/// drops it, which would shift the write counters.
class SlicerFidelity : public ::testing::TestWithParam<int> {};

TEST_P(SlicerFidelity, KernelIoMetricsMatchFullApplication) {
  const std::string sources[] = {
      wl::sources::macsio_vpic(), wl::sources::vpic(), wl::sources::flash(),
      wl::sources::hacc(), wl::sources::bdcats()};
  const std::string& source = sources[GetParam()];

  DiscoveryOptions options;
  options.io_prefixes = {"h5", "fprintf_log"};
  KernelResult kernel = discover_io(source, options);

  auto run = [](const minic::Program& program) {
    mpisim::MpiSim mpi(8);
    pfs::PfsSimulator fs;
    return interp::execute(program, mpi, fs, cfg::default_settings(), {});
  };
  const auto full = run(minic::parse(source));
  const auto sliced = run(kernel.kernel);
  EXPECT_EQ(sliced.perf.counters.write_ops, full.perf.counters.write_ops);
  EXPECT_EQ(sliced.perf.counters.read_ops, full.perf.counters.read_ops);
  EXPECT_EQ(sliced.perf.counters.bytes_written,
            full.perf.counters.bytes_written);
  EXPECT_EQ(sliced.perf.counters.bytes_read, full.perf.counters.bytes_read);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SlicerFidelity,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace tunio::discovery
