// The one executor of application-level ops on the simulated stack.
//
// Every program that runs against hdf5lite → mpiio → mpisim → pfs runs
// its ops through an `OpExecutor`: the five native workload drivers, the
// mini-C interpreter's builtins, and `replay::replay`, which feeds a
// recorded trace back into the same methods. Replay is only bit-identical
// if all three charge each op the same way, so each op has this one
// implementation. Each method records its op when a `replay::RecordScope`
// is active on the calling thread (see replay/recorder.hpp), then
// performs it; nothing below this layer knows about recording.
//
// The executor owns the run's `trace::RunMeter` and its file and dataset
// handle tables. Handles are indices into those tables. Every
// `create_file` and `create_dataset` takes the next handle, which is also
// the id the trace names the object by. `open_dataset` returns a new
// handle to an existing dataset; the trace names the dataset, not the
// handle, so a replayed trace, which only creates, uses its ids as
// handles.
//
// Everything the tuner decides (striping, MPI-IO hints, FAPL, chunk
// cache) comes from the `StackSettings` the executor was built with; the
// ops carry only what the program decides.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "config/stack_settings.hpp"
#include "hdf5lite/file.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"
#include "trace/meter.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

/// The simulator path of the file a program run calls `name`: the one
/// prefix of the native drivers and the interpreter, "_", then `name`.
inline constexpr std::string_view kPathPrefix = "/scratch/run";
inline std::string run_path(std::string_view name) {
  return std::string(kPathPrefix).append("_").append(name);
}

class OpExecutor {
 public:
  OpExecutor(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
             const cfg::StackSettings& settings);

  OpExecutor(const OpExecutor&) = delete;
  OpExecutor& operator=(const OpExecutor&) = delete;

  // --- files and datasets -------------------------------------------------

  /// Creates (truncates) an HDF5 file at `path`, in the memory tier when
  /// `memory_tier` is set. Returns its handle.
  std::uint32_t create_file(const std::string& path,
                            bool memory_tier = false);
  /// Flushes every dataset of the file and its staged metadata.
  void flush_file(std::uint32_t file);
  /// Flush + close; a no-op (and not recorded) on a closed file.
  void close_file(std::uint32_t file);

  /// Creates a dataset in `file`, chunked when `chunk_elements` is
  /// positive, contiguous otherwise. Returns its handle.
  std::uint32_t create_dataset(std::uint32_t file, const std::string& name,
                               Bytes elem_size, std::uint64_t num_elements,
                               std::uint64_t chunk_elements);
  /// A new handle to the existing dataset `name` of `file` (not recorded:
  /// it changes nothing on the stack).
  std::uint32_t open_dataset(std::uint32_t file, const std::string& name);
  /// Flushes the dataset's cached chunks and sieve buffers.
  void flush_dataset(std::uint32_t dataset);
  /// Transfers one selection per participating rank.
  void write(std::uint32_t dataset,
             const std::vector<h5::Selection>& selections, bool collective);
  void read(std::uint32_t dataset,
            const std::vector<h5::Selection>& selections, bool collective);

  std::size_t num_files() const { return files_.size(); }
  std::size_t num_datasets() const { return datasets_.size(); }

  // --- other application ops ---------------------------------------------

  /// Rank 0 appends `bytes` to the log file at `path` through buffered
  /// stdio — the incidental I/O that Application I/O Discovery strips
  /// from kernels. A missing log is created on one stripe, in the memory
  /// tier when `memory_tier` is set; with one stripe, no tuned Lustre
  /// setting changes how its writes are served.
  void log_write(const std::string& path, Bytes bytes, bool memory_tier);
  /// Runs a compute phase across all ranks with deterministic per-rank
  /// jitter followed by a barrier, as SPMD codes do between I/O phases.
  /// No-op (and not recorded) unless `seconds` is positive.
  void compute(double seconds, unsigned salt);
  /// Application-level MPI_Barrier.
  void barrier();
  /// Rewinds the MPI clocks (a driver's set-up is not billed to its run).
  void mpi_reset();
  /// Drains the simulated filesystem's queues.
  void fs_quiesce();

  // --- metering -----------------------------------------------------------

  void meter_begin();
  void phase(trace::Phase phase);
  /// Ends the metered run.
  RunResult meter_end();

 private:
  /// One dataset handle: the dataset and its id in creation order.
  struct DatasetHandle {
    h5::Dataset* dataset = nullptr;
    std::uint32_t id = 0;
  };

  h5::File& file(std::uint32_t handle);
  const DatasetHandle& dataset(std::uint32_t handle) const;
  void transfer(std::uint32_t dataset, bool is_write,
                const std::vector<h5::Selection>& selections,
                bool collective);

  mpisim::MpiSim& mpi_;
  pfs::PfsSimulator& fs_;
  const cfg::StackSettings& settings_;
  trace::RunMeter meter_;
  SimSeconds start_ = 0.0;
  std::vector<std::unique_ptr<h5::File>> files_;
  std::vector<DatasetHandle> datasets_;
  std::uint32_t datasets_created_ = 0;
};

}  // namespace tunio::wl
