#include "hdf5lite/metadata.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio::h5 {

namespace {

Bytes align_up(Bytes value, Bytes granule) {
  if (granule <= 1) return value;
  return (value + granule - 1) / granule * granule;
}

}  // namespace

MetadataManager::MetadataManager(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                                 const std::string& path,
                                 const FileAccessProps& fapl)
    : mpi_(mpi), fs_(fs), fapl_(fapl) {
  TUNIO_CHECK_MSG(fapl_.meta_block_size > 0, "meta block size must be > 0");
  // The file must already exist (File's MpiIoFile creates it first); all
  // metadata traffic then goes through the handle, not the path.
  const std::optional<pfs::FileHandle> handle = fs_.find_file(path);
  TUNIO_CHECK_MSG(handle.has_value(), "metadata manager on missing file: " + path);
  handle_ = *handle;
}

Bytes MetadataManager::alloc_raw(Bytes bytes) {
  if (bytes >= fapl_.alignment_threshold && fapl_.alignment > 1) {
    eoa_ = align_up(eoa_, fapl_.alignment);
  }
  const Bytes offset = eoa_;
  eoa_ += bytes;
  return offset;
}

Bytes MetadataManager::alloc_meta(Bytes bytes) {
  if (bytes > meta_block_remaining_) {
    // Open a new aggregation block at the end of the file.
    meta_block_cursor_ = eoa_;
    const Bytes block = std::max(fapl_.meta_block_size, bytes);
    meta_block_remaining_ = block;
    eoa_ += block;
    ++stats_.meta_blocks;
  }
  const Bytes offset = meta_block_cursor_;
  meta_block_cursor_ += bytes;
  meta_block_remaining_ -= bytes;
  return offset;
}

void MetadataManager::meta_update(Bytes bytes) {
  const Bytes offset = alloc_meta(bytes);
  working_set_ += bytes;
  // While the working set fits, the period is the constant cold-miss one.
  if (miss_period_ == 0 || working_set_ > fapl_.mdc_nbytes) {
    miss_period_ = miss_period();
  }
  if (fapl_.coll_metadata_write) {
    // Stage: the dirty metadata will be written in one aggregated pass.
    if (staged_meta_bytes_ == 0) staged_meta_offset_ = offset;
    staged_meta_bytes_ += bytes;
    return;
  }
  // Eager: rank 0 issues the small write immediately and everyone waits
  // on it at the next synchronization (approximated by charging rank 0).
  ++stats_.meta_writes;
  stats_.meta_bytes_written += bytes;
  const SimSeconds done = fs_.write(handle_, mpi_.clock(0), offset, bytes);
  mpi_.set_clock(0, done);
}

void MetadataManager::meta_lookup(Bytes object_bytes) {
  ++lookup_counter_;
  // Deterministic spreading: every k-th lookup misses, where k ~ 1/p.
  const bool miss = miss_period_ != 0 && lookup_counter_ % miss_period_ == 0;
  if (!miss) {
    ++stats_.mdc_hits;
    return;
  }
  ++stats_.mdc_misses;
  if (fapl_.coll_metadata_ops) {
    // One rank resolves the object, result is broadcast.
    ++stats_.meta_reads;
    const SimSeconds done = fs_.metadata_op(mpi_.clock(0));
    mpi_.set_clock(0, done);
    mpi_.broadcast(0, object_bytes);
  } else {
    // MDS storm: every rank performs its own lookup; the shared MDS
    // timeline serializes them.
    for (unsigned r = 0; r < mpi_.size(); ++r) {
      ++stats_.meta_reads;
      const SimSeconds done = fs_.metadata_op(mpi_.clock(r));
      mpi_.set_clock(r, done);
    }
  }
}

void MetadataManager::flush() {
  if (staged_meta_bytes_ == 0) return;
  // One aggregated write covering the staged region, issued collectively
  // (modeled as a single large write from rank 0 after a barrier).
  mpi_.barrier();
  ++stats_.meta_writes;
  stats_.meta_bytes_written += staged_meta_bytes_;
  const SimSeconds done =
      fs_.write(handle_, mpi_.max_clock(), staged_meta_offset_,
                staged_meta_bytes_);
  for (unsigned r = 0; r < mpi_.size(); ++r) mpi_.set_clock(r, done);
  staged_meta_bytes_ = 0;
}

std::uint64_t MetadataManager::miss_period() const {
  if (working_set_ == 0) return 0;
  double p_miss = 0.02;  // cold misses only, while the working set fits
  if (fapl_.mdc_nbytes < working_set_) {
    const double fit = static_cast<double>(fapl_.mdc_nbytes) /
                       static_cast<double>(working_set_);
    p_miss = std::clamp(1.0 - fit, 0.02, 1.0);
  }
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(1.0 / std::max(p_miss, 1e-9)));
}

}  // namespace tunio::h5
