// Replay side of the evaluation fast path.
//
// `replay()` feeds a recorded op stream back into the methods of a fresh
// `wl::OpExecutor`, the same ones the interpreter and the native drivers
// call, built with the *current* settings. The executor substitutes them
// at every decision point the stack makes (file creation, dataset
// creation, log creation, MPI-IO hints). No interpreter, no workload
// generator, no per-evaluation AST walk — only the simulated stack itself
// runs. For settings-invariant programs the result is bit-identical to
// re-running the source (the differential tests and ObjectiveBase's
// verification evaluation enforce this).
#pragma once

#include "config/stack_settings.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "replay/optrace.hpp"
#include "trace/meter.hpp"

namespace tunio::replay {

struct ReplayResult {
  trace::PerfResult perf;
  SimSeconds sim_seconds = 0.0;
};

/// Replays `trace` against fresh simulators under `settings`. The trace
/// must come from a Recorder whose `valid()` returned true.
ReplayResult replay(const OpTrace& trace, mpisim::MpiSim& mpi,
                    pfs::PfsSimulator& fs, const cfg::StackSettings& settings);

/// Bit-level equality of two PerfResults — the differential oracle's
/// predicate. Doubles are compared by bit pattern, not tolerance.
bool bit_identical(const trace::PerfResult& a, const trace::PerfResult& b);

}  // namespace tunio::replay
