// H5File: the container object tying datasets, metadata and MPI-IO
// together — the analogue of an HDF5 file opened with the MPI-IO VFD.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "hdf5lite/dataset.hpp"
#include "hdf5lite/metadata.hpp"
#include "hdf5lite/properties.hpp"
#include "mpiio/mpiio.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"

namespace tunio::h5 {

class File {
 public:
  /// Creates (truncates) a file on the simulated stack.
  File(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs, std::string path,
       FileAccessProps fapl, mpiio::Hints hints,
       pfs::CreateOptions create_options = {});

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Creates a dataset; the returned reference lives as long as the file.
  Dataset& create_dataset(const std::string& name, Bytes elem_size,
                          std::uint64_t num_elements,
                          const DatasetCreateProps& dcpl = {},
                          const ChunkCacheProps& ccpl = {});

  /// Looks up an existing dataset by name.
  Dataset& dataset(const std::string& name);
  bool has_dataset(const std::string& name) const;

  /// Flushes all datasets and staged metadata.
  void flush();

  /// Flush + file close (superblock update, MDS close). Idempotent.
  void close();
  bool closed() const { return closed_; }

  const std::string& path() const { return path_; }
  const FileAccessProps& fapl() const { return fapl_; }
  mpisim::MpiSim& mpi() { return mpi_; }
  pfs::PfsSimulator& fs() { return fs_; }
  mpiio::MpiIoFile& mpiio() { return *mpiio_; }
  MetadataManager& meta() { return meta_; }
  const MetadataManager& meta() const { return meta_; }

 private:
  mpisim::MpiSim& mpi_;
  pfs::PfsSimulator& fs_;
  std::string path_;
  FileAccessProps fapl_;
  std::unique_ptr<mpiio::MpiIoFile> mpiio_;
  MetadataManager meta_;
  std::map<std::string, std::unique_ptr<Dataset>> datasets_;
  bool closed_ = false;
};

}  // namespace tunio::h5
