// Tests for the mini-C interpreter: language semantics, I/O builtins
// against the simulated stack, loop reduction bookkeeping, error traps.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "config/stack_settings.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "workloads/ops.hpp"

namespace tunio::interp {
namespace {

InterpResult run(const std::string& source,
                 unsigned ranks = 4,
                 const cfg::StackSettings& settings = cfg::default_settings()) {
  mpisim::MpiSim mpi(ranks);
  pfs::PfsSimulator fs;
  return execute(minic::parse(source), mpi, fs, settings, {});
}

TEST(Interp, ArithmeticAndReturn) {
  EXPECT_EQ(run("int main() { return 2 + 3 * 4; }").exit_code, 14);
  EXPECT_EQ(run("int main() { return (2 + 3) * 4; }").exit_code, 20);
  EXPECT_EQ(run("int main() { return 17 % 5; }").exit_code, 2);
  EXPECT_EQ(run("int main() { return 17 / 5; }").exit_code, 3);
  EXPECT_EQ(run("int main() { return -3 + 5; }").exit_code, 2);
  EXPECT_EQ(run("int main() { double x = 2.5; return x * 2.0; }").exit_code,
            5);
}

TEST(Interp, IntegerArithmeticWrapsAsTwosComplement) {
  // The two's-complement int64 semantics the abstract interpreter
  // assumes: overflow wraps, and dividing INT64_MIN by -1 does not trap.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::string min = "(0 - 9223372036854775807 - 1)";
  const auto eval = [](const std::string& expr) {
    return run("int main() { return " + expr + "; }").exit_code;
  };
  EXPECT_EQ(eval("9223372036854775807 + 1"), kMin);
  EXPECT_EQ(eval(min + " - 1"), kMax);
  EXPECT_EQ(eval("4611686018427387904 * 2"), kMin);
  EXPECT_EQ(eval("3037000500 * 3037000500"), -9223372036709301616);
  EXPECT_EQ(eval("-" + min), kMin);
  EXPECT_EQ(eval(min + " / -1"), kMin);
  EXPECT_EQ(eval(min + " % -1"), 0);
  EXPECT_EQ(eval("7 / -1"), -7);
  EXPECT_EQ(eval("-7 % 3"), -1);
}

TEST(Interp, ComparisonsAndLogic) {
  EXPECT_EQ(run("int main() { return 3 < 4; }").exit_code, 1);
  EXPECT_EQ(run("int main() { return 3 >= 4; }").exit_code, 0);
  EXPECT_EQ(run("int main() { return 1 && 0; }").exit_code, 0);
  EXPECT_EQ(run("int main() { return 0 || 2; }").exit_code, 1);
  EXPECT_EQ(run("int main() { return !0; }").exit_code, 1);
  // Short-circuit: the divide-by-zero on the right is never evaluated.
  EXPECT_EQ(run("int main() { int z = 0; return 0 && 1 / z; }").exit_code, 0);
}

TEST(Interp, ControlFlow) {
  EXPECT_EQ(run(R"(
    int main()
    {
      int sum = 0;
      for (int i = 0; i < 10; i = i + 1)
      {
        sum = sum + i;
      }
      return sum;
    })").exit_code,
            45);
  EXPECT_EQ(run(R"(
    int main()
    {
      int n = 100;
      int steps = 0;
      while (n > 1)
      {
        n = n / 2;
        steps = steps + 1;
      }
      return steps;
    })").exit_code,
            6);
  EXPECT_EQ(run(R"(
    int main()
    {
      int x = 7;
      if (x % 2 == 0)
      {
        return 0;
      }
      else
      {
        return 1;
      }
    })").exit_code,
            1);
}

TEST(Interp, FunctionsAndRecursionGuard) {
  EXPECT_EQ(run(R"(
    int fib(int n)
    {
      if (n < 2)
      {
        return n;
      }
      return fib(n - 1) + fib(n - 2);
    }
    int main()
    {
      return fib(10);
    })").exit_code,
            55);
  EXPECT_THROW(run(R"(
    int loop(int n)
    {
      return loop(n + 1);
    }
    int main()
    {
      return loop(0);
    })"),
               SourceError);
}

TEST(Interp, StringConcatenation) {
  // Paths are assembled with '+', mixing strings and integers.
  const InterpResult result = run(R"(
    int main()
    {
      string base = "/scratch/file_";
      int f = h5fcreate(base + 3 + ".h5");
      h5fclose(f);
      return 0;
    })");
  EXPECT_EQ(result.exit_code, 0);
}

TEST(Interp, ScopingShadowsAndExpires) {
  EXPECT_EQ(run(R"(
    int main()
    {
      int x = 1;
      if (x == 1)
      {
        int y = 10;
        x = x + y;
      }
      return x;
    })").exit_code,
            11);
  // A block-local variable is gone after the block.
  EXPECT_THROW(run(R"(
    int main()
    {
      if (1 == 1)
      {
        int inner = 5;
      }
      return inner;
    })"),
               SourceError);
}

TEST(Interp, RuntimeErrors) {
  EXPECT_THROW(run("int main() { return 1 / 0; }"), SourceError);
  EXPECT_THROW(run("int main() { return 1 % 0; }"), SourceError);
  EXPECT_THROW(run("int main() { return ghost; }"), SourceError);
  EXPECT_THROW(run("int main() { ghost = 1; return 0; }"), SourceError);
  EXPECT_THROW(run("int main() { return unknown_fn(); }"), SourceError);
  EXPECT_THROW(run("int main() { int x = 1; int x = 2; return x; }"),
               SourceError);
  EXPECT_THROW(run("int main() { h5fclose(42); return 0; }"), SourceError);
  EXPECT_THROW(run("int main() { compute(); return 0; }"), SourceError);
  EXPECT_THROW(run("int notmain() { return 0; }"), SourceError);
}

// A double converts to int only when its integer part fits int64; NaN and
// out-of-range values raise a located error instead of undefined
// behaviour. Values just inside the range still truncate toward zero.
TEST(Interp, DoubleToIntOutsideRangeIsAnError) {
  const auto error = [](const std::string& source) -> std::string {
    try {
      run(source);
    } catch (const SourceError& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string out_of_range = "is outside the int range";
  const std::string found =
      "int main()\n{\n  double d = 100000000000000000000.0;\n"
      "  return d;\n}";
  EXPECT_NE(error(found).find("line 1: double value"), std::string::npos)
      << error(found);
  for (const char* value : {"-100000000000000000000.0",
                            "9223372036854775808.0"}) {
    const std::string source = std::string("int main() { double d = ") +
                               value + "; return d; }";
    EXPECT_NE(error(source).find(out_of_range), std::string::npos) << value;
  }
  // inf - inf is NaN.
  const std::string nan =
      "int main() { double big = 1.0; int i = 0;\n"
      " while (i < 400) { big = big * 10.0; i = i + 1; }\n"
      " double n = big - big;\n";
  for (const char* use : {"return n; }", "h5fclose(n); return 0; }"}) {
    EXPECT_NE(error(nan + use).find(out_of_range), std::string::npos) << use;
  }
  EXPECT_NE(error(nan + "h5fclose(n); return 0; }").find("line 4"),
            std::string::npos);
  EXPECT_EQ(run("int main() { double d = -2.75; return d; }").exit_code, -2);
  EXPECT_EQ(run("int main() { double d = -9223372036854775808.0; return d; }")
                .exit_code,
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(run("int main() { double d = 9223372036854774784.0; return d; }")
                .exit_code,
            9223372036854774784);
}

TEST(Interp, LoopIterationGuard) {
  mpisim::MpiSim mpi(2);
  pfs::PfsSimulator fs;
  InterpOptions options;
  options.max_loop_iterations = 100;
  EXPECT_THROW(execute(minic::parse(R"(
    int main()
    {
      int x = 0;
      while (1 == 1)
      {
        x = x + 1;
      }
      return x;
    })"),
                       mpi, fs, cfg::default_settings(), options),
               SourceError);
}

TEST(Interp, IoBuiltinsDriveTheStack) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  const InterpResult result = execute(minic::parse(R"(
    int main()
    {
      int np = 4096;
      int f = h5fcreate("/scratch/out.h5");
      int ds = h5dcreate(f, "x", 4, np * mpi_size());
      h5dwrite_all(ds, np);
      h5dread_all(ds, np);
      h5dclose(ds);
      h5fclose(f);
      return 0;
    })"),
                                      mpi, fs, cfg::default_settings(), {});
  EXPECT_EQ(result.exit_code, 0);
  const Bytes payload = 8u * 4096u * 4u;
  EXPECT_GE(result.perf.counters.bytes_written, payload);
  // Metadata adds a little, not a lot.
  EXPECT_LE(result.perf.counters.bytes_written, payload + 64 * KiB);
  EXPECT_GT(result.perf.counters.bytes_read, 0u);
  EXPECT_GT(result.perf.counters.write_time, 0.0);
  EXPECT_GT(result.perf.counters.read_time, 0.0);
  EXPECT_GT(result.perf.perf_mbps, 0.0);
}

// h5set_chunking(1) on a 2^50-element dataset is legal mini-C: only the
// two touched chunks take index space, at the offsets first-touch order
// gives them (pinned through the file's end).
TEST(Interp, HugeSparseChunkedDataset) {
  mpisim::MpiSim mpi(1);
  pfs::PfsSimulator fs;
  const InterpResult result = execute(minic::parse(R"(
    int main()
    {
      int f = h5fcreate("/scratch/sparse.h5");
      h5set_chunking(1);
      int ds = h5dcreate(f, "x", 4, 1125899906842624);
      h5dwrite_strided(ds, 0, 1);
      h5dwrite_strided(ds, 562949953421312, 1);
      h5dclose(ds);
      h5fclose(f);
      return 0;
    })"),
                                      mpi, fs, cfg::default_settings(), {});
  EXPECT_EQ(result.exit_code, 0);
  const auto handle = fs.find_file(wl::run_path("/scratch/sparse.h5"));
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(fs.file_size(*handle), 6152u);  // chunk 2^49 ends the file
  EXPECT_EQ(result.perf.counters.bytes_written, 1736u);
}

TEST(Interp, MpiBuiltins) {
  EXPECT_EQ(run("int main() { return mpi_size(); }", 16).exit_code, 16);
  const InterpResult result = run(R"(
    int main()
    {
      compute(1.0);
      mpi_barrier();
      return 0;
    })");
  EXPECT_GT(result.sim_seconds, 0.9);
}

TEST(Interp, ChunkingBuiltinAffectsLayout) {
  // With chunking set, a partial overwrite triggers chunk-cache traffic
  // (observable as a higher write count than the contiguous run).
  auto write_ops = [](bool chunked) {
    const std::string chunk_stmt = chunked ? "h5set_chunking(1024);" : "";
    mpisim::MpiSim mpi(4);
    pfs::PfsSimulator fs;
    const InterpResult r = execute(minic::parse(R"(
      int main()
      {
        int f = h5fcreate("/scratch/c.h5");
        )" + chunk_stmt + R"(
        int ds = h5dcreate(f, "x", 4, 1048576);
        h5dwrite_all(ds, 262144);
        h5fclose(f);
        return 0;
      })"),
                                   mpi, fs, cfg::default_settings(), {});
    return r.perf.counters.write_ops;
  };
  EXPECT_NE(write_ops(true), write_ops(false));
}

TEST(Interp, MemoryPathsAvoidOsts) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  const InterpResult result = execute(minic::parse(R"(
    int main()
    {
      int f = h5fcreate("/shm/scratch/fast.h5");
      int ds = h5dcreate(f, "x", 4, 1048576);
      h5dwrite_all(ds, 262144);
      h5fclose(f);
      return 0;
    })"),
                                      mpi, fs, cfg::default_settings(), {});
  EXPECT_EQ(result.exit_code, 0);
  for (const SimSeconds busy : fs.ost_busy_times()) {
    EXPECT_DOUBLE_EQ(busy, 0.0);
  }
}

TEST(Interp, ReducedItersRecordsExtrapolation) {
  const InterpResult result = run(R"(
    int main()
    {
      int f = h5fcreate("/scratch/r.h5");
      int ds = h5dcreate(f, "x", 4, 1048576);
      for (int i = 0; i < reduced_iters(20, 10); i = i + 1)
      {
        h5dwrite_all(ds, 1024);
      }
      h5fclose(f);
      return 0;
    })");
  // 20/10 = 2 iterations ran; extrapolation factor = 10.
  EXPECT_DOUBLE_EQ(result.extrapolation, 10.0);
  EXPECT_NEAR(result.predicted_bytes_written,
              static_cast<double>(result.perf.counters.bytes_written) * 10.0,
              1e-6);
}

TEST(Interp, ReducedItersNeverBelowOne) {
  EXPECT_EQ(run("int main() { return reduced_iters(3, 100); }").exit_code, 1);
  EXPECT_EQ(run("int main() { return reduced_iters(300, 100); }").exit_code,
            3);
}

TEST(Interp, MinMaxBuiltins) {
  EXPECT_EQ(run("int main() { return min(3, 7); }").exit_code, 3);
  EXPECT_EQ(run("int main() { return max(3, 7); }").exit_code, 7);
}

TEST(Interp, LeakedFilesAreClosedAtExit) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  const InterpResult result = execute(minic::parse(R"(
    int main()
    {
      int f = h5fcreate("/scratch/leak.h5");
      int ds = h5dcreate(f, "x", 4, 1048576);
      h5dwrite_all(ds, 262144);
      return 0;
    })"),
                                      mpi, fs, cfg::default_settings(), {});
  // The implicit close flushed the raw data to the PFS.
  EXPECT_GE(result.perf.counters.bytes_written, 4u * 262144u * 4u);
}

TEST(Interp, LogWritesCountAsNonHdf5Io) {
  const InterpResult result = run(R"(
    int main()
    {
      for (int i = 0; i < 10; i = i + 1)
      {
        fprintf_log("/scratch/x.log", 128);
      }
      return 0;
    })");
  EXPECT_EQ(result.perf.counters.write_ops, 10u);
  EXPECT_EQ(result.perf.counters.bytes_written, 1280u);
}

}  // namespace
}  // namespace tunio::interp
