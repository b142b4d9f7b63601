#include "workloads/ops.hpp"

#include <cstdint>
#include <optional>

#include "replay/hooks.hpp"

namespace tunio::wl {

namespace {

/// Deterministic per-rank compute jitter in [0.97, 1.03] (SplitMix64-style
/// hash of rank and salt): real SPMD ranks never finish compute phases in
/// lockstep, and the resulting barrier stalls are part of what I/O tuning
/// has to live with.
double compute_jitter(unsigned rank, unsigned salt) {
  std::uint64_t z = (static_cast<std::uint64_t>(rank) << 32) ^ salt;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double unit = static_cast<double>(z % 10000) / 10000.0;
  return 0.97 + 0.06 * unit;
}

}  // namespace

void compute_phase(mpisim::MpiSim& mpi, double seconds, unsigned salt) {
  if (seconds <= 0.0) return;
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_compute(seconds, salt);
  }
  for (unsigned r = 0; r < mpi.size(); ++r) {
    mpi.compute(r, seconds * compute_jitter(r, salt));
  }
  mpi.barrier();
}

void log_write(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
               const std::string& path, Bytes bytes, bool memory_tier) {
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_log_write(path, bytes, memory_tier);
  }
  std::optional<pfs::FileHandle> log = fs.find_file(path);
  if (!log) {
    pfs::CreateOptions create;
    create.stripe_count = 1;  // logs are plain fopen'd files
    if (memory_tier) create.tier = pfs::Tier::kMemory;
    log = fs.create_file(path, mpi.clock(0), create).handle;
  }
  // Buffered stdio: the bytes are staged and flushed asynchronously, so
  // the writer only pays a library-call cost — but the operation and its
  // bytes still reach the filesystem (and its counters), which is what
  // Darshan-style monitoring sees.
  fs.write(*log, mpi.clock(0), fs.file_size(*log), bytes);
  mpi.compute(0, 5e-6);
}

}  // namespace tunio::wl
