// Application workloads for the tuning experiments.
//
// Each workload reproduces the I/O pattern of one of the paper's
// applications:
//
//   * VPIC-IO   — plasma-physics particle dump: 8 variables, one big
//                 collective 1-D write per variable, write-only;
//   * FLASH-IO  — checkpoint + plotfiles: dozens of chunked datasets,
//                 block-strided medium writes, metadata-heavy;
//   * HACC-IO   — cosmology checkpoint: 9 variables, very large
//                 contiguous per-rank extents into one shared file;
//   * MACSio    — a configurable multi-purpose I/O proxy (the paper
//                 baselines its compute:I/O ratio on VPIC's Dipole runs),
//                 including the incidental logging writes that
//                 Application I/O Discovery strips;
//   * BD-CATS   — parallel DBSCAN clustering over particle data:
//                 read-dominated, long compute phases, small result
//                 writes.
//
// A workload runs as an SPMD program over the simulated stack and
// reports the paper's `perf` objective plus full counters.
//
// `RunOptions` strips from a driver what TunIO's Application I/O
// Discovery strips from a program: non-I/O compute (`compute_scale = 0`)
// and incidental logging writes. A driver runs in two forms, the full
// application and that I/O kernel. Loop Reduction and I/O Path Switching
// exist only in discovery, which applies them to the mini-C versions of
// the same programs (see `workloads/sources.hpp`).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "config/stack_settings.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "trace/meter.hpp"

namespace tunio::wl {

/// What is stripped from a run (see file comment).
struct RunOptions {
  double compute_scale = 1.0;   ///< 0 = compute stripped (I/O kernel)
  bool include_log_writes = true;  ///< incidental logging / print I/O
};

/// Result of one run.
struct RunResult {
  trace::PerfResult perf;
  SimSeconds sim_seconds = 0.0;  ///< wall time of the run (simulated)
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// Executes the workload on a prepared stack. The caller owns reset
  /// semantics (fresh MpiSim/PfsSimulator per evaluation run).
  virtual RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                        const cfg::StackSettings& settings,
                        const RunOptions& options = {}) const = 0;
};

/// --- concrete workloads -------------------------------------------------

struct VpicParams {
  std::uint64_t particles_per_rank = 1u << 19;  ///< 512Ki particles
  unsigned timesteps = 2;
  double compute_seconds_per_step = 8.0;
};
std::unique_ptr<Workload> make_vpic(VpicParams params = {});

struct FlashParams {
  unsigned blocks_per_rank = 8;
  Bytes block_bytes = 96 * KiB;      ///< one 4-D unknowns block
  unsigned checkpoint_datasets = 12; ///< unknowns + grid metadata
  unsigned plotfile_datasets = 4;
  double compute_seconds_per_step = 5.0;
};
std::unique_ptr<Workload> make_flash(FlashParams params = {});

struct HaccParams {
  std::uint64_t particles_per_rank = 1u << 20;
  unsigned variables = 9;
  double compute_seconds_per_step = 6.0;
};
std::unique_ptr<Workload> make_hacc(HaccParams params = {});

struct MacsioParams {
  unsigned num_dumps = 10;
  Bytes bytes_per_rank_per_dump = 8 * MiB;
  Bytes part_bytes = 1 * MiB;  ///< request granularity within a dump
  /// Compute:I/O ratio baselined on VPIC Dipole runs (the paper, §IV-A):
  /// VPIC dump cycles are I/O-dominated, so compute is a modest fraction
  /// of each cycle (that is why Fig. 8(a)'s kernel saves ~14%, not 10x).
  double compute_seconds_per_dump = 2.0;
  unsigned log_writes_per_dump = 256;  ///< incidental logging operations
  Bytes log_write_bytes = 512;
};
std::unique_ptr<Workload> make_macsio(MacsioParams params = {});

struct BdcatsParams {
  std::uint64_t particles_per_rank = 1u << 20;  ///< points read per rank
  unsigned variables = 3;         ///< x, y, z read for clustering
  unsigned clustering_rounds = 4;
  double compute_seconds_per_round = 10.0;
  Bytes result_bytes_per_rank = 256 * KiB;
};
std::unique_ptr<Workload> make_bdcats(BdcatsParams params = {});

}  // namespace tunio::wl
