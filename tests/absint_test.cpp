// Tests for the abstract-interpretation layer: interval-domain edge
// cases (overflow saturation, widening, division by ranges containing
// zero), settings-taint propagation (through calls, returns, implicit
// control flow, dead/overwritten reads), structural trip-count bounding,
// and the static I/O cost model — including the ctest-gated differential
// oracle checking that predicted intervals contain interpreter-measured
// op counts and byte volumes on all five seed workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/absint.hpp"
#include "analysis/cost_model.hpp"
#include "common/error.hpp"
#include "config/stack_settings.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "replay/recorder.hpp"
#include "replay/trace_stats.hpp"
#include "workloads/sources.hpp"

namespace tunio::analysis {
namespace {

constexpr unsigned kRanks = 8;

const Interval kTop = Interval::top();

// --- interval arithmetic ---------------------------------------------------

TEST(Interval, AddOverflowSaturatesToTop) {
  // Concrete int64 arithmetic wraps; [kMax-1, kMax] + [2, 2] can land at
  // kMin, so anything short of top would be unsound.
  const Interval a = Interval::range(Interval::kMax - 1, Interval::kMax);
  EXPECT_TRUE(abs_add(a, Interval::constant(2)).is_top());
  EXPECT_TRUE(abs_sub(Interval::constant(Interval::kMin),
                      Interval::constant(1)).is_top());
}

TEST(Interval, AddExactWhenRepresentable) {
  const Interval r = abs_add(Interval::range(2, 5), Interval::range(10, 20));
  EXPECT_EQ(r, Interval::range(12, 25));
}

TEST(Interval, MulTakesExtremeCandidates) {
  const Interval r = abs_mul(Interval::range(-3, 2), Interval::range(-5, 4));
  EXPECT_EQ(r, Interval::range(-12, 15));
}

TEST(Interval, MulOverflowSaturatesToTop) {
  const Interval big = Interval::constant(std::int64_t{1} << 40);
  EXPECT_TRUE(abs_mul(big, big).is_top());
}

TEST(Interval, DivByRangeContainingZeroIsTop) {
  EXPECT_TRUE(abs_div(Interval::range(10, 20), Interval::range(-1, 1))
                  .is_top());
  EXPECT_EQ(abs_div(Interval::range(10, 21), Interval::constant(2)),
            Interval::range(5, 10));
}

TEST(Interval, ModOfNonnegativeBelowModulus) {
  EXPECT_EQ(abs_mod(Interval::range(0, 6), Interval::constant(8)),
            Interval::range(0, 6));
  const Interval r = abs_mod(Interval::range(0, 100), Interval::constant(8));
  EXPECT_EQ(r, Interval::range(0, 7));
}

TEST(Interval, WideningJumpsMovedBoundsToInfinity) {
  const Interval prev = Interval::range(0, 10);
  EXPECT_EQ(prev.widen(Interval::range(0, 11)),
            Interval::range(0, Interval::kMax));
  EXPECT_EQ(prev.widen(Interval::range(-1, 10)),
            Interval::range(Interval::kMin, 10));
  EXPECT_EQ(prev.widen(Interval::range(0, 10)), prev);
}

TEST(Interval, CountArithmeticClampsAndSaturates) {
  // A possibly-negative size becomes a huge uint64 concretely, so the
  // clamp must widen to [0, kMax]; already-nonnegative intervals pass
  // through, and count products saturate at kMax rather than going top.
  EXPECT_EQ(count_clamp(Interval::range(-5, 9)),
            Interval::range(0, Interval::kMax));
  EXPECT_EQ(count_clamp(Interval::range(2, 9)), Interval::range(2, 9));
  EXPECT_EQ(count_mul(Interval::constant(Interval::kMax),
                      Interval::constant(2)),
            Interval::range(Interval::kMax, Interval::kMax));
  EXPECT_EQ(count_add(Interval::constant(3), Interval::constant(4)),
            Interval::constant(7));
}

// --- cost-model helpers ----------------------------------------------------

ProgramCost analyze(const std::string& source,
                    std::int64_t ranks_lo = 1,
                    std::int64_t ranks_hi = 1 << 20) {
  return predict_cost(minic::parse(source),
                      Interval::range(ranks_lo, ranks_hi));
}

const SiteCost* site_for(const ProgramCost& cost, const std::string& callee) {
  for (const SiteCost& site : cost.sites) {
    if (site.callee == callee) return &site;
  }
  return nullptr;
}

// --- constant propagation & trip counts ------------------------------------

TEST(CostModel, StraightLineConstantVolume) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 1024);
      h5dwrite_all(d, 128);
      h5fclose(f);
      return 0;
    }
  )", 4, 4);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::constant(1));
  // 128 elements x 8 bytes x 4 ranks.
  EXPECT_EQ(cost.bytes_written, Interval::constant(128 * 8 * 4));
  EXPECT_EQ(cost.file_opens, Interval::constant(1));
  EXPECT_EQ(cost.dataset_creates, Interval::constant(1));
  EXPECT_FALSE(cost.any_tainted_site());
  EXPECT_TRUE(cost.bounded());
}

TEST(CostModel, ForLoopTripCountIsExact) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 4, 4096);
      int i = 0;
      for (i = 0; i < 10; i = i + 1) {
        h5dwrite_all(d, 256);
      }
      h5fclose(f);
      return 0;
    }
  )", 2, 2);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::constant(10));
  EXPECT_EQ(cost.bytes_written, Interval::constant(10 * 256 * 4 * 2));
}

TEST(CostModel, NestedLoopsMultiply) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      int i = 0;
      int j = 0;
      for (i = 0; i < 3; i = i + 1) {
        for (j = 0; j < 5; j = j + 1) {
          h5dwrite_strided(d, 16, 64);
        }
      }
      h5fclose(f);
      return 0;
    }
  )", 1, 1);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::constant(15));
  EXPECT_EQ(cost.bytes_written, Interval::constant(15 * 64 * 8));
}

TEST(CostModel, WhileLoopIsUnbounded) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 64);
      int i = 0;
      while (i < 10) {
        h5dwrite_all(d, 1);
        i = i + 1;
      }
      h5fclose(f);
      return 0;
    }
  )", 1, 1);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  // No structural bound for while-loops: calls must still *contain* the
  // concrete count (10) but cannot be bounded above.
  EXPECT_TRUE(cost.write_ops.contains(10));
  EXPECT_FALSE(cost.write_ops.bounded_above());
  EXPECT_FALSE(cost.bounded());
}

TEST(CostModel, UnresolvedBranchWidensCallCount) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 64);
      if (mpi_size() > 4) {
        h5dwrite_all(d, 2);
      }
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::range(0, 1));
}

TEST(CostModel, DecidableBranchStaysExact) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 64);
      int n = 3;
      if (n > 4) {
        h5dwrite_all(d, 2);
      } else {
        h5dwrite_all(d, 5);
      }
      h5fclose(f);
      return 0;
    }
  )", 1, 1);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::constant(1));
  EXPECT_EQ(cost.bytes_written, Interval::constant(5 * 8));
}

TEST(CostModel, EarlyReturnFloorsLowerBounds) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 64);
      if (mpi_size() > 64) {
        return 1;
      }
      h5dwrite_all(d, 2);
      h5fclose(f);
      return 0;
    }
  )", 1, 1);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_EQ(cost.write_ops, Interval::range(0, 1));
}

// --- taint -----------------------------------------------------------------

TEST(Taint, DirectFlowIntoWriteArgument) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int per = tuned_stripe_count() * 64;
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, per);
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const SiteCost* write = site_for(cost, "h5dwrite_all");
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->tainted);
  EXPECT_TRUE(cost.any_tainted_site());
}

TEST(Taint, DeadTunedReadIsClean) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int unused = tuned_cb_nodes();
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, 64);
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_FALSE(cost.any_tainted_site());
  EXPECT_FALSE(cost.tainted_control_exit);
}

TEST(Taint, OverwrittenTunedReadIsClean) {
  // The PR-4 slicer marks this dependent (scope-level conservatism); the
  // statement-granular taint proves the tuned value never survives.
  const ProgramCost cost = analyze(R"(
    int main() {
      int s = tuned_stripe_count();
      s = 8;
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, s);
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_FALSE(cost.any_tainted_site());
}

TEST(Taint, ImplicitFlowThroughCondition) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int per = 1024;
      if (tuned_stripe_count() > 4) {
        per = 4096;
      }
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, per);
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const SiteCost* write = site_for(cost, "h5dwrite_all");
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->tainted) << "per assigned under tainted control";
}

TEST(Taint, OpUnderTaintedControlIsTainted) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      if (tuned_cb_nodes() > 2) {
        h5dwrite_all(d, 64);
      }
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const SiteCost* write = site_for(cost, "h5dwrite_all");
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->tainted);
}

TEST(Taint, FlowsThroughFunctionCallAndReturn) {
  const ProgramCost cost = analyze(R"(
    int pick(int a) {
      return a + 1;
    }
    int main() {
      int per = pick(tuned_stripe_size_kib());
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, per);
      h5fclose(f);
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const SiteCost* write = site_for(cost, "h5dwrite_all");
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->tainted);
}

TEST(Taint, CleanArgumentThroughFunctionStaysClean) {
  const ProgramCost cost = analyze(R"(
    int pick(int a) {
      return a + 1;
    }
    int main() {
      int dead = tuned_stripe_count();
      int per = pick(63);
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      h5dwrite_all(d, per);
      h5fclose(f);
      return 0;
    }
  )", 2, 2);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const SiteCost* write = site_for(cost, "h5dwrite_all");
  ASSERT_NE(write, nullptr);
  EXPECT_FALSE(write->tainted);
  // Constant propagation through the call: 63 + 1 = 64 elements x 8 B x 2.
  EXPECT_EQ(cost.bytes_written, Interval::constant(64 * 8 * 2));
}

TEST(Taint, TaintedControlReturnSetsExitFlag) {
  const ProgramCost cost = analyze(R"(
    int main() {
      if (tuned_cb_nodes() > 2) {
        return 1;
      }
      return 0;
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_TRUE(cost.tainted_control_exit);
}

TEST(Taint, ValueTaintedReturnDoesNotSetExitFlag) {
  const ProgramCost cost = analyze(R"(
    int main() {
      return tuned_cb_nodes();
    }
  )");
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  EXPECT_FALSE(cost.tainted_control_exit);
}

// --- limits ----------------------------------------------------------------

TEST(Limits, RecursionIsUnanalyzable) {
  const ProgramCost cost = analyze(R"(
    int f(int n) {
      if (n > 0) {
        return f(n - 1);
      }
      return 0;
    }
    int main() {
      return f(10);
    }
  )");
  EXPECT_FALSE(cost.analyzable);
  EXPECT_FALSE(cost.failure.empty());
}

TEST(Limits, NoMainIsUnanalyzable) {
  const ProgramCost cost = analyze("int helper() { return 0; }");
  EXPECT_FALSE(cost.analyzable);
}

// --- differential oracle against the interpreter ---------------------------

replay::AppIoCounts measured(const minic::Program& program) {
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs, cfg::default_settings());
  }
  EXPECT_TRUE(recorder.valid()) << recorder.error();
  return replay::app_io_counts(recorder.take());
}

void expect_contains(const Interval& predicted, std::uint64_t got,
                     const char* what) {
  const auto v = static_cast<std::int64_t>(got);
  EXPECT_TRUE(predicted.contains(v))
      << what << ": measured " << got << " outside predicted "
      << predicted.str();
}

void expect_cost_contains_measurement(const std::string& source) {
  const minic::Program program = minic::parse(source);
  const ProgramCost cost = predict_cost(program, Interval::constant(kRanks));
  ASSERT_TRUE(cost.analyzable) << cost.failure;

  const replay::AppIoCounts got = measured(program);
  expect_contains(cost.write_ops, got.write_ops, "write ops");
  expect_contains(cost.read_ops, got.read_ops, "read ops");
  expect_contains(cost.bytes_written, got.bytes_written, "bytes written");
  expect_contains(cost.bytes_read, got.bytes_read, "bytes read");
  expect_contains(cost.file_opens, got.file_opens, "file opens");
  expect_contains(cost.dataset_creates, got.dataset_creates,
                  "dataset creates");
}

TEST(DifferentialOracle, Vpic) {
  expect_cost_contains_measurement(wl::sources::vpic());
}

TEST(DifferentialOracle, Flash) {
  expect_cost_contains_measurement(wl::sources::flash());
}

TEST(DifferentialOracle, Hacc) {
  expect_cost_contains_measurement(wl::sources::hacc());
}

TEST(DifferentialOracle, MacsioVpic) {
  expect_cost_contains_measurement(wl::sources::macsio_vpic());
}

TEST(DifferentialOracle, Bdcats) {
  expect_cost_contains_measurement(wl::sources::bdcats());
}

// Every op-emitting builtin at least once, with min/max/reduced_iters in
// the sizes and trip counts: the workload sources never call h5dopen,
// h5dread_strided, mpi_barrier, compute, min, max or reduced_iters. The
// transfers go through h5dcreate's handle, whose element size is known,
// so every predicted volume is exact.
TEST(DifferentialOracle, EveryOpEmittingBuiltin) {
  expect_cost_contains_measurement(R"(
    int main()
    {
      int n = mpi_size();
      int f = h5fcreate("/scratch/every_builtin.h5");
      h5set_chunking(4096);
      int d = h5dcreate(f, "x", 8, 1048576);
      h5dwrite_all(d, min(65536, 1048576 / n));
      for (int i = 0; i < reduced_iters(8, 2); i = i + 1)
      {
        h5dwrite_strided(d, i, 1024);
        h5dread_strided(d, 3, max(512, 1024));
        compute(0.001);
        mpi_barrier();
      }
      h5dread_all(d, 4096);
      h5dclose(h5dopen(f, "x"));
      h5dclose(d);
      h5fclose(f);
      int g = h5fopen("/scratch/every_builtin_log.h5");
      h5fclose(g);
      fprintf_log("/scratch/every_builtin.log", 256);
      return 0;
    }
  )");
}

// The seeds' loops are structurally bounded for-loops, so the model
// should produce *finite* transfer predictions, not just sound ones.
TEST(DifferentialOracle, SeedPredictionsAreBounded) {
  for (const char* name :
       {"VPIC-IO", "FLASH-IO", "HACC-IO", "MACSio", "BD-CATS"}) {
    const auto source = wl::sources::source_for(name);
    ASSERT_TRUE(source.has_value()) << name;
    const ProgramCost cost =
        predict_cost(minic::parse(*source), Interval::constant(kRanks));
    ASSERT_TRUE(cost.analyzable) << name << ": " << cost.failure;
    EXPECT_TRUE(cost.bounded()) << name;
    EXPECT_TRUE(cost.bytes_written.bounded_above()) << name;
  }
}

// --- static impact pre-ranking ---------------------------------------------

TEST(StaticImpact, LargeContiguousWritesFavorStriping) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 16777216);
      h5dwrite_all(d, 1048576);
      h5fclose(f);
      return 0;
    }
  )", 4, 4);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const auto impact = static_impact(cost);
  ASSERT_FALSE(impact.empty());
  EXPECT_EQ(impact.front().first, "striping_factor");
  EXPECT_DOUBLE_EQ(impact.front().second, 1.0);
}

TEST(StaticImpact, SmallRepeatedWritesFavorCollectiveBuffering) {
  const ProgramCost cost = analyze(R"(
    int main() {
      int f = h5fcreate("/scratch/a.h5");
      int d = h5dcreate(f, "x", 8, 65536);
      int i = 0;
      for (i = 0; i < 100; i = i + 1) {
        h5dwrite_all(d, 16);
      }
      h5fclose(f);
      return 0;
    }
  )", 4, 4);
  ASSERT_TRUE(cost.analyzable) << cost.failure;
  const auto impact = static_impact(cost);
  ASSERT_FALSE(impact.empty());
  EXPECT_EQ(impact.front().first, "cb_buffer_size");
}

TEST(StaticImpact, UnanalyzableProgramHasNoRanking) {
  ProgramCost cost;
  cost.analyzable = false;
  EXPECT_TRUE(static_impact(cost).empty());
}

}  // namespace
}  // namespace tunio::analysis
