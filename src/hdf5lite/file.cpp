#include "hdf5lite/file.hpp"

#include "common/error.hpp"

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
  for (auto& [name, dataset] : datasets_) dataset->flush();
  meta_.flush();
}

void File::close() {
  if (closed_) return;
  for (auto& [name, dataset] : datasets_) dataset->close();
  // Superblock is rewritten on close (end-of-allocation update).
  meta_.meta_update(kSuperblockBytes);
  meta_.flush();
  mpiio_->close();
  closed_ = true;
}

}  // namespace tunio::h5
