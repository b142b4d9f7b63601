// Application-level ops shared by every executor of a program on the
// simulated stack: the native workload drivers, the mini-C interpreter's
// `compute` and `fprintf_log` builtins, and the replayer. Replay is only
// bit-identical if all three charge these ops the same way, so each op
// has this one implementation, and each records itself for the replay
// recorder.
#pragma once

#include <string>

#include "common/units.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"

namespace tunio::wl {

/// Runs a compute phase across all ranks with deterministic per-rank
/// jitter followed by a barrier, as SPMD codes do between I/O phases.
/// No-op unless `seconds` is positive.
void compute_phase(mpisim::MpiSim& mpi, double seconds, unsigned salt);

/// Rank 0 appends `bytes` to the log file at `path` through buffered
/// stdio — the incidental I/O that Application I/O Discovery strips from
/// kernels. A missing log is created on one stripe, in the memory tier
/// when `memory_tier` is set; with one stripe, no tuned Lustre setting
/// changes how its writes are served.
void log_write(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
               const std::string& path, Bytes bytes, bool memory_tier);

}  // namespace tunio::wl
