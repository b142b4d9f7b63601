// Datasets: the raw-data path of the HDF5-like library.
//
// Datasets are 1-D arrays of fixed-size elements (the HPC workloads in
// this repository — particle dumps, checkpoint blocks — all map naturally
// onto flattened 1-D selections, which is also how HDF5 itself linearizes
// hyperslabs before hitting MPI-IO).
//
// Two layouts are modeled, as in HDF5:
//   * contiguous — one file extent, with a sieve buffer staging small
//     accesses (`sieve_buf_size`);
//   * chunked — fixed-size chunks allocated on first touch (aligned per
//     the FAPL), staged in an LRU chunk cache (`chunk_cache`), with
//     chunk-index metadata traffic on every chunk touch. The cache's chunk
//     table holds each touched chunk's file offset and residency, so a
//     touch finds its chunk once; nothing is sized per dataset up front.
//
// Writes/reads take per-rank element selections and a transfer property
// list; collective transfers route through MPI-IO's two-phase engine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hdf5lite/chunk_cache.hpp"
#include "hdf5lite/metadata.hpp"
#include "hdf5lite/properties.hpp"
#include "mpiio/mpiio.hpp"

namespace tunio::h5 {

/// One rank's hyperslab: `count` elements starting at `start_element`.
struct Selection {
  unsigned rank = 0;
  std::uint64_t start_element = 0;
  std::uint64_t count = 0;
};

/// Per-dataset access statistics.
struct DatasetStats {
  std::uint64_t h5_writes = 0;  ///< H5Dwrite-equivalent calls
  std::uint64_t h5_reads = 0;
  Bytes bytes_written = 0;      ///< user payload bytes
  Bytes bytes_read = 0;
  std::uint64_t chunk_prereads = 0;  ///< partial-chunk read-modify-writes
  std::uint64_t sieve_flushes = 0;
};

class File;

class Dataset {
 public:
  Dataset(File& file, std::string name, Bytes elem_size,
          std::uint64_t num_elements, const DatasetCreateProps& dcpl,
          const ChunkCacheProps& ccpl);

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  const std::string& name() const { return name_; }
  Bytes elem_size() const { return elem_size_; }
  std::uint64_t num_elements() const { return num_elements_; }
  bool chunked() const { return chunk_elements_ != 0; }
  Bytes chunk_bytes() const { return chunk_elements_ * elem_size_; }

  /// Writes the given selections (one entry per participating rank).
  void write(const std::vector<Selection>& selections,
             const TransferProps& dxpl);

  /// Reads the given selections.
  void read(const std::vector<Selection>& selections,
            const TransferProps& dxpl);

  /// Flushes cached dirty chunks and sieve buffers.
  void flush();

  /// Flush + final attribute update. Idempotent.
  void close();

  const DatasetStats& stats() const { return stats_; }
  const ChunkCacheStats* cache_stats() const;

  /// File offset of a chunk, once it has file space.
  std::optional<Bytes> chunk_offset(std::uint64_t chunk_index) const;

 private:
  struct SieveWindow {
    Bytes offset = 0;   ///< file offset of the staged region
    Bytes length = 0;   ///< staged bytes (0 = empty)
    bool dirty = false;
  };

  /// Byte extent of a selection within the dataset's address space.
  struct ByteExtent {
    unsigned rank = 0;
    Bytes offset = 0;  ///< absolute file offset
    Bytes length = 0;
  };

  void write_contiguous(const std::vector<Selection>& selections,
                        const TransferProps& dxpl);
  void write_chunked(const std::vector<Selection>& selections,
                     const TransferProps& dxpl);
  void read_contiguous(const std::vector<Selection>& selections,
                       const TransferProps& dxpl);
  void read_chunked(const std::vector<Selection>& selections,
                    const TransferProps& dxpl);

  /// Ensures the chunk has file space; returns its offset.
  Bytes ensure_chunk_allocated(ChunkEntry& entry);

  /// Writes `rank`'s copy of a full chunk back (cache eviction / flush).
  void write_back_chunk(unsigned rank, ChunkEntry& entry);

  void flush_sieve(unsigned rank);

  /// Issues a batch of write extents through MPI-IO.
  void issue_writes(const std::vector<ByteExtent>& extents, bool collective);
  void issue_reads(const std::vector<ByteExtent>& extents, bool collective);

  File& file_;
  std::string name_;
  Bytes elem_size_;
  std::uint64_t num_elements_;
  std::uint64_t chunk_elements_ = 0;  ///< 0 = contiguous

  Bytes base_offset_ = 0;  ///< contiguous layout only
  /// Chunked layout only: the chunk cache and, in its table, the file
  /// offset of each chunk touched so far (the declared extent may be far
  /// larger than what is ever written).
  std::unique_ptr<ChunkCache> cache_;
  std::map<unsigned, SieveWindow> sieves_;  ///< per-rank sieve windows
  bool closed_ = false;
  DatasetStats stats_;
};

}  // namespace tunio::h5
