#include "workloads/ops.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "replay/recorder.hpp"

namespace tunio::wl {

using replay::Op;
using replay::OpKind;

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

/// Records an op that carries nothing but its kind and id.
void record(OpKind kind, std::uint32_t id = 0) {
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = kind, .id = id});
  }
}

}  // namespace

OpExecutor::OpExecutor(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                       const cfg::StackSettings& settings)
    : mpi_(mpi), fs_(fs), settings_(settings), meter_(mpi, fs) {}

h5::File& OpExecutor::file(std::uint32_t handle) {
  TUNIO_CHECK_MSG(handle < files_.size(), "bad file handle");
  return *files_[handle];
}

const OpExecutor::DatasetHandle& OpExecutor::dataset(
    std::uint32_t handle) const {
  TUNIO_CHECK_MSG(handle < datasets_.size(), "bad dataset handle");
  return datasets_[handle];
}

std::uint32_t OpExecutor::create_file(const std::string& path,
                                      bool memory_tier) {
  pfs::CreateOptions create = settings_.lustre;
  if (memory_tier) create.tier = pfs::Tier::kMemory;
  files_.push_back(std::make_unique<h5::File>(
      mpi_, fs_, path, settings_.fapl, settings_.mpiio, create));
  const auto handle = static_cast<std::uint32_t>(files_.size() - 1);
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kFileCtor,
                 .flag2 = memory_tier,
                 .id = handle,
                 .text = path});
  }
  return handle;
}

void OpExecutor::flush_file(std::uint32_t handle) {
  h5::File& f = file(handle);
  record(OpKind::kFileFlush, handle);
  f.flush();
}

void OpExecutor::close_file(std::uint32_t handle) {
  h5::File& f = file(handle);
  if (f.closed()) return;
  record(OpKind::kFileClose, handle);
  f.close();
}

std::uint32_t OpExecutor::create_dataset(std::uint32_t file_handle,
                                         const std::string& name,
                                         Bytes elem_size,
                                         std::uint64_t num_elements,
                                         std::uint64_t chunk_elements) {
  h5::DatasetCreateProps dcpl;
  if (chunk_elements > 0) dcpl.chunk_elements = chunk_elements;
  h5::Dataset& created = file(file_handle).create_dataset(
      name, elem_size, num_elements, dcpl, settings_.chunk_cache);
  datasets_.push_back({&created, datasets_created_++});
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kDatasetCreate,
                 .id = file_handle,
                 .a = elem_size,
                 .b = num_elements,
                 .c = chunk_elements,
                 .text = name});
  }
  return static_cast<std::uint32_t>(datasets_.size() - 1);
}

std::uint32_t OpExecutor::open_dataset(std::uint32_t file_handle,
                                       const std::string& name) {
  const h5::Dataset* existing = &file(file_handle).dataset(name);
  const auto it = std::find_if(
      datasets_.begin(), datasets_.end(),
      [&](const DatasetHandle& h) { return h.dataset == existing; });
  TUNIO_CHECK(it != datasets_.end());  // every dataset is created here
  const DatasetHandle alias = *it;
  datasets_.push_back(alias);
  return static_cast<std::uint32_t>(datasets_.size() - 1);
}

void OpExecutor::flush_dataset(std::uint32_t handle) {
  const DatasetHandle& ds = dataset(handle);
  record(OpKind::kDatasetFlush, ds.id);
  ds.dataset->flush();
}

void OpExecutor::transfer(std::uint32_t handle, bool is_write,
                          const std::vector<h5::Selection>& selections,
                          bool collective) {
  const DatasetHandle& ds = dataset(handle);
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kDatasetIo,
                 .flag = is_write,
                 .flag2 = collective,
                 .id = ds.id},
                selections);
  }
  const h5::TransferProps dxpl{collective};
  if (is_write) {
    ds.dataset->write(selections, dxpl);
  } else {
    ds.dataset->read(selections, dxpl);
  }
}

void OpExecutor::write(std::uint32_t dataset,
                       const std::vector<h5::Selection>& selections,
                       bool collective) {
  transfer(dataset, /*is_write=*/true, selections, collective);
}

void OpExecutor::read(std::uint32_t dataset,
                      const std::vector<h5::Selection>& selections,
                      bool collective) {
  transfer(dataset, /*is_write=*/false, selections, collective);
}

void OpExecutor::log_write(const std::string& path, Bytes bytes,
                           bool memory_tier) {
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kLogWrite,
                 .flag2 = memory_tier,
                 .a = bytes,
                 .text = path});
  }
  std::optional<pfs::FileHandle> log = fs_.find_file(path);
  if (!log) {
    pfs::CreateOptions create;
    create.stripe_count = 1;  // logs are plain fopen'd files
    if (memory_tier) create.tier = pfs::Tier::kMemory;
    log = fs_.create_file(path, mpi_.clock(0), create).handle;
  }
  // Buffered stdio: the bytes are staged and flushed asynchronously, so
  // the writer only pays a library-call cost — but the operation and its
  // bytes still reach the filesystem (and its counters), which is what
  // Darshan-style monitoring sees.
  fs_.write(*log, mpi_.clock(0), fs_.file_size(*log), bytes);
  mpi_.compute(0, 5e-6);
}

void OpExecutor::compute(double seconds, unsigned salt) {
  if (seconds <= 0.0) return;
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kCompute, .seconds = seconds, .salt = salt});
  }
  for (unsigned r = 0; r < mpi_.size(); ++r) {
    mpi_.compute(r, seconds * compute_jitter(r, salt));
  }
  mpi_.barrier();
}

void OpExecutor::barrier() {
  record(OpKind::kBarrier);
  mpi_.barrier();
}

void OpExecutor::mpi_reset() {
  record(OpKind::kMpiReset);
  mpi_.reset();
}

void OpExecutor::fs_quiesce() {
  record(OpKind::kFsQuiesce);
  fs_.quiesce();
}

void OpExecutor::meter_begin() {
  record(OpKind::kMeterBegin);
  meter_.begin();
  start_ = mpi_.max_clock();
}

void OpExecutor::phase(trace::Phase phase) {
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->record({.kind = OpKind::kPhase,
                 .salt = static_cast<std::uint32_t>(phase)});
  }
  meter_.phase_begin(phase);
}

RunResult OpExecutor::meter_end() {
  record(OpKind::kMeterEnd);
  return {meter_.end(), mpi_.max_clock() - start_};
}

}  // namespace tunio::wl
