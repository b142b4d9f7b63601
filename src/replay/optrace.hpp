// Flat, settings-independent record of one metered run's I/O calls.
//
// An `OpTrace` captures the application-level ops a kernel or workload
// driver issues through `wl::OpExecutor`, one op per executor call:
// file/dataset lifecycle, dataset transfers, log writes, compute phases,
// barriers, and meter marks. Everything the tuned settings decide
// (striping, MPI-IO hints, alignment, chunk caching) is deliberately
// *not* in the trace: it is re-substituted from the `StackSettings` at
// replay time. Replaying the stream through the same executor therefore
// produces bit-identical `PerfResult`s to re-running the source program,
// provided the program's control flow never observes a tunable
// (`replay::settings_dependent` decides that).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hdf5lite/dataset.hpp"

namespace tunio::replay {

enum class OpKind : std::uint8_t {
  kFileCtor,       ///< OpExecutor::create_file
  kFileFlush,      ///< OpExecutor::flush_file
  kFileClose,      ///< OpExecutor::close_file (of an open file)
  kDatasetCreate,  ///< OpExecutor::create_dataset
  kDatasetFlush,   ///< OpExecutor::flush_dataset
  kDatasetIo,      ///< OpExecutor::write / read
  kLogWrite,       ///< OpExecutor::log_write (fprintf_log)
  kCompute,        ///< OpExecutor::compute
  kBarrier,        ///< OpExecutor::barrier
  kMpiReset,       ///< OpExecutor::mpi_reset (setup/run separation, BD-CATS)
  kFsQuiesce,      ///< OpExecutor::fs_quiesce
  kMeterBegin,     ///< OpExecutor::meter_begin
  kPhase,          ///< OpExecutor::phase
  kMeterEnd,       ///< OpExecutor::meter_end
};

/// One recorded operation. Fields are overloaded per kind (see comments);
/// object identity is by sequential id in creation order — replay creates
/// files/datasets in recorded order, so ids line up by construction.
struct Op {
  OpKind kind = OpKind::kBarrier;
  bool flag = false;   ///< kDatasetIo: is_write
  bool flag2 = false;  ///< kDatasetIo: collective; kFileCtor/kLogWrite: memory tier
  std::uint32_t id = 0;     ///< file id (kFile*, kDatasetCreate) or dataset id
  std::uint64_t a = 0;      ///< kDatasetCreate: elem_size; kLogWrite: bytes
  std::uint64_t b = 0;      ///< kDatasetCreate: num_elements
  std::uint64_t c = 0;      ///< kDatasetCreate: requested chunk_elements (0 = contiguous)
  double seconds = 0.0;     ///< kCompute: unjittered per-rank duration
  std::uint32_t salt = 0;   ///< kCompute: jitter salt; kPhase: trace::Phase
  std::uint32_t sel_begin = 0;  ///< kDatasetIo: range into OpTrace::sels
  std::uint32_t sel_count = 0;
  std::string text{};  ///< resolved path (kFileCtor/kLogWrite) or dataset name
};

struct OpTrace {
  std::vector<Op> ops;
  std::vector<h5::Selection> sels;  ///< flat pool referenced by kDatasetIo
  std::uint32_t num_files = 0;
  std::uint32_t num_datasets = 0;
};

}  // namespace tunio::replay
