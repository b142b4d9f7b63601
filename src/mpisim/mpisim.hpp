// Simulated MPI runtime.
//
// The workloads are SPMD programs over `num_ranks` simulated processes.
// Rather than spawning real processes, each rank owns a simulated clock;
// drivers iterate over ranks to perform each program phase and the
// collectives synchronize/advance those clocks using standard
// log-tree cost models (latency * ceil(log2 P) + bytes / bandwidth).
//
// This captures everything the I/O tuning experiments need from MPI:
// relative rank progress, synchronization stalls at barriers before and
// after I/O phases, and the shuffle cost of two-phase collective I/O.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace tunio::mpisim {

// Communication cost model for collectives.
/// Latency per tree level.
inline constexpr SimSeconds kHopLatency = 2e-6;
/// Per-rank injection bandwidth.
inline constexpr Bps kLinkBandwidth = 10 * GB;
/// Cori Haswell: 32 ranks/node.
inline constexpr unsigned kRanksPerNode = 32;

class MpiSim {
 public:
  explicit MpiSim(unsigned num_ranks);
  /// Flushes accumulated collective counters into the global metrics
  /// registry (`mpi.*` series).
  ~MpiSim();

  MpiSim(const MpiSim&) = delete;
  MpiSim& operator=(const MpiSim&) = delete;

  unsigned size() const { return static_cast<unsigned>(clocks_.size()); }
  unsigned num_nodes() const;

  SimSeconds clock(unsigned rank) const;
  void set_clock(unsigned rank, SimSeconds t);

  /// Advances one rank's clock by `seconds` of local compute.
  void compute(unsigned rank, SimSeconds seconds);

  /// Maximum clock across ranks (the job's current makespan).
  SimSeconds max_clock() const;
  SimSeconds min_clock() const;

  /// Synchronizes all ranks: everyone leaves at max + tree latency.
  void barrier();

  /// Allreduce of `bytes` payload per rank: barrier + 2x tree traffic.
  void allreduce(Bytes bytes);

  /// Gathers `bytes` from every rank to `root`.
  void gather(unsigned root, Bytes bytes_per_rank);

  /// Broadcast of `bytes` from `root` to everyone.
  void broadcast(unsigned root, Bytes bytes);

  /// Point-to-point send of `bytes` from `src` to `dst`.
  void send(unsigned src, unsigned dst, Bytes bytes);

  /// Resets all clocks to zero.
  void reset();

 private:
  SimSeconds tree_latency() const;

  /// Records one finished collective: counters plus, when tracing is on,
  /// a cat="mpi" span covering [first rank arrived, everyone left).
  void note_collective(const char* name, std::uint64_t& counter,
                       SimSeconds start, SimSeconds end, Bytes bytes);

  /// Publishes counters accumulated since the last publish.
  void publish_metrics();

  std::vector<SimSeconds> clocks_;

  // Accumulated locally and flushed at teardown/reset so the collective
  // hot path stays free of shared atomics.
  std::uint64_t barriers_ = 0;
  std::uint64_t allreduces_ = 0;
  std::uint64_t gathers_ = 0;
  std::uint64_t broadcasts_ = 0;
  std::uint64_t sends_ = 0;
  Bytes collective_bytes_ = 0;
  SimSeconds sync_stall_seconds_ = 0.0;  ///< sum over ranks of wait time
};

}  // namespace tunio::mpisim
