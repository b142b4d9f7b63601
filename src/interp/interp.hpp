// Tree-walking interpreter: runs mini-C programs against the simulated
// I/O stack.
//
// The same programs that Application I/O Discovery analyzes can be
// *executed* — full application and extracted kernel alike — so kernel
// fidelity (Fig. 8c) is measured, not assumed. Programs are written in
// SPMD driver form: bulk builtins express what every rank does
// (`h5dwrite_all(ds, n)` = each rank writes its n-element slab), which is
// how the real VPIC/FLASH/HACC I/O kernels are structured.
//
// The builtins, with their parameters and arities, are the table in
// minic/builtins.cpp. A function the program defines shadows the builtin
// of that name. Reading a tuned_* builtin makes the kernel
// settings-dependent, which disqualifies it from the record/replay fast
// path.
//
// A program's path `p` names the simulator file `wl::run_path(p)`. Paths
// beginning with discovery::kMemoryPathPrefix ("/shm") land on the
// memory tier — that is how I/O Path Switching takes effect at run time.
// Loop Reduction takes effect through `reduced_iters`, whose factors the
// result multiplies back into its predicted counters.
#pragma once

#include <cstdint>

#include "config/stack_settings.hpp"
#include "minic/ast.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "trace/meter.hpp"

namespace tunio::interp {

struct InterpOptions {
  /// Safety valve for runaway loops.
  std::uint64_t max_loop_iterations = 1u << 22;
};

struct InterpResult {
  trace::PerfResult perf;
  /// Product of realized loop-reduction factors (1 when no reduction ran).
  double extrapolation = 1.0;
  /// Counters scaled back to the unreduced program ("the scalable metrics
  /// ... multiplied by the loop reductions", §III-B).
  double predicted_bytes_written = 0.0;
  double predicted_write_ops = 0.0;
  SimSeconds sim_seconds = 0.0;
  std::int64_t exit_code = 0;
};

/// Executes `program`'s main() on the given stack. Throws SourceError on
/// runtime errors (unknown identifiers, bad builtin arity, type errors).
InterpResult execute(const minic::Program& program, mpisim::MpiSim& mpi,
                     pfs::PfsSimulator& fs,
                     const cfg::StackSettings& settings,
                     const InterpOptions& options = {});

}  // namespace tunio::interp
