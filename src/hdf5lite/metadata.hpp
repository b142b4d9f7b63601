// File-space allocation and metadata traffic model.
//
// Three HDF5 mechanisms are reproduced here because three of the tuned
// parameters act through them:
//
//   * `meta_block_size` — small metadata allocations are packed into
//     aggregation blocks, so the number of distinct small file writes
//     drops as the block grows;
//   * `coll_metadata_write` — metadata modifications are either flushed
//     eagerly as individual small writes (off) or staged and written in
//     aggregated batches at flush points (on);
//   * `coll_metadata_ops` + `mdc_nbytes` — metadata *reads*: with
//     collective ops a single rank resolves an object and broadcasts it;
//     otherwise every rank hits the MDS. The metadata cache absorbs
//     repeat lookups while the working set fits in `mdc_nbytes`.
//
// Raw-data allocations honor `alignment`/`alignment_threshold`
// (H5Pset_alignment), which is what lines dataset chunks up with Lustre
// stripe boundaries.
#pragma once

#include <cstdint>
#include <string>

#include "hdf5lite/properties.hpp"
#include "mpisim/mpisim.hpp"
#include "pfs/pfs.hpp"

namespace tunio::h5 {

struct MetadataStats {
  std::uint64_t meta_writes = 0;     ///< individual metadata write ops issued
  Bytes meta_bytes_written = 0;
  std::uint64_t meta_reads = 0;      ///< MDS round-trips for lookups
  std::uint64_t mdc_hits = 0;
  std::uint64_t mdc_misses = 0;
  std::uint64_t meta_blocks = 0;     ///< aggregation blocks allocated
};

class MetadataManager {
 public:
  /// `path` must already exist in `fs`; it is resolved to a handle once
  /// here and never hashed again on the metadata write path.
  MetadataManager(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                  const std::string& path, const FileAccessProps& fapl);

  /// Allocates `bytes` of raw data space; returns its file offset.
  Bytes alloc_raw(Bytes bytes);

  /// Allocates `bytes` of metadata space inside aggregation blocks.
  Bytes alloc_meta(Bytes bytes);

  /// Records a metadata modification of `bytes` (object header, B-tree
  /// node, superblock...). Eager mode writes it immediately from rank 0;
  /// collective mode stages it until `flush`.
  void meta_update(Bytes bytes);

  /// A metadata lookup performed by every rank (object open/locate).
  /// Honors collective metadata ops and the metadata cache.
  void meta_lookup(Bytes object_bytes);

  /// Flushes staged collective metadata writes (file close / explicit
  /// flush). No-op in eager mode.
  void flush();

  Bytes end_of_allocation() const { return eoa_; }
  const MetadataStats& stats() const { return stats_; }

 private:
  /// Lookups per metadata-cache miss (0: none miss), about one over the
  /// miss probability that the metadata working set vs. `mdc_nbytes`
  /// gives. `meta_lookup` reads it from `miss_period_`, which
  /// `meta_update` sets once the working set is non-empty and refreshes
  /// only while it exceeds `mdc_nbytes` (below that the period is fixed);
  /// the FAPL is fixed at construction.
  std::uint64_t miss_period() const;

  mpisim::MpiSim& mpi_;
  pfs::PfsSimulator& fs_;
  pfs::FileHandle handle_ = 0;
  FileAccessProps fapl_;

  Bytes eoa_ = 4096;          ///< superblock occupies the file head
  Bytes meta_block_cursor_ = 0;
  Bytes meta_block_remaining_ = 0;
  Bytes staged_meta_bytes_ = 0;   ///< pending collective metadata
  Bytes staged_meta_offset_ = 0;  ///< start of the staged region
  Bytes working_set_ = 0;         ///< total live metadata bytes
  std::uint64_t lookup_counter_ = 0;  ///< deterministic miss spreading
  std::uint64_t miss_period_ = 0;     ///< miss_period() at working_set_
  MetadataStats stats_;
};

}  // namespace tunio::h5
