#include "hdf5lite/file.hpp"

#include "common/error.hpp"
#include "replay/hooks.hpp"

namespace tunio::h5 {

namespace {
constexpr Bytes kSuperblockBytes = 96;
}

File::File(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs, std::string path,
           FileAccessProps fapl, mpiio::Hints hints,
           pfs::CreateOptions create_options)
    : mpi_(mpi),
      fs_(fs),
      path_(std::move(path)),
      fapl_(fapl),
      mpiio_(std::make_unique<mpiio::MpiIoFile>(mpi, fs, path_, hints,
                                                create_options)),
      meta_(mpi, fs, path_, fapl_) {
  // Superblock write at creation.
  meta_.meta_update(kSuperblockBytes);
  // Only the memory-tier choice is the caller's; the striping/hints all
  // came from the settings and get re-substituted at replay.
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_file_ctor(this, path_, create_options.tier == pfs::Tier::kMemory);
  }
}

File::~File() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() failures surface when called
    // explicitly.
  }
}

Dataset& File::create_dataset(const std::string& name, Bytes elem_size,
                              std::uint64_t num_elements,
                              const DatasetCreateProps& dcpl,
                              const ChunkCacheProps& ccpl) {
  TUNIO_CHECK_MSG(!closed_, "create_dataset on closed file");
  TUNIO_CHECK_MSG(datasets_.count(name) == 0, "dataset exists: " + name);
  auto dataset =
      std::make_unique<Dataset>(*this, name, elem_size, num_elements, dcpl,
                                ccpl);
  Dataset& ref = *dataset;
  datasets_.emplace(name, std::move(dataset));
  // Record the caller's (pre-clamp) chunk request; the cache props come
  // from the settings and get re-substituted at replay.
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_dataset_create(this, &ref, name, elem_size, num_elements,
                           dcpl.chunk_elements.value_or(0));
  }
  return ref;
}

Dataset& File::dataset(const std::string& name) {
  auto it = datasets_.find(name);
  TUNIO_CHECK_MSG(it != datasets_.end(), "unknown dataset: " + name);
  return *it->second;
}

bool File::has_dataset(const std::string& name) const {
  return datasets_.count(name) > 0;
}

void File::flush() {
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_file_flush(this);
  }
  // One kFileFlush op stands for the whole composite; the per-dataset
  // flushes below must not record themselves.
  replay::SuppressScope suppress;
  for (auto& [name, dataset] : datasets_) dataset->flush();
  meta_.flush();
}

void File::close() {
  if (closed_) return;
  if (replay::Recorder* rec = replay::active_recorder()) {
    rec->on_file_close(this);
  }
  replay::SuppressScope suppress;
  for (auto& [name, dataset] : datasets_) dataset->close();
  // Superblock is rewritten on close (end-of-allocation update).
  meta_.meta_update(kSuperblockBytes);
  meta_.flush();
  mpiio_->close();
  closed_ = true;
}

}  // namespace tunio::h5
