#include "hdf5lite/dataset.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hdf5lite/file.hpp"

namespace tunio::h5 {

namespace {

/// Approximate on-disk sizes of HDF5 metadata records.
constexpr Bytes kObjectHeaderBytes = 800;
constexpr Bytes kBtreeRecordBytes = 160;
constexpr Bytes kAttributeBytes = 256;

}  // namespace

Dataset::Dataset(File& file, std::string name, Bytes elem_size,
                 std::uint64_t num_elements, const DatasetCreateProps& dcpl,
                 const ChunkCacheProps& ccpl)
    : file_(file),
      name_(std::move(name)),
      elem_size_(elem_size),
      num_elements_(num_elements) {
  TUNIO_CHECK_MSG(elem_size_ > 0, "element size must be positive");
  TUNIO_CHECK_MSG(num_elements_ > 0, "dataset must be non-empty");
  if (dcpl.chunk_elements.has_value()) {
    chunk_elements_ = std::min<std::uint64_t>(*dcpl.chunk_elements,
                                              num_elements_);
    TUNIO_CHECK_MSG(chunk_elements_ > 0, "chunk size must be positive");
    cache_ = std::make_unique<ChunkCache>(ccpl, chunk_bytes());
    // B-tree root for the chunk index.
    file_.meta().meta_update(kBtreeRecordBytes);
  } else {
    // Contiguous layout: allocate the whole extent up front.
    base_offset_ = file_.meta().alloc_raw(num_elements_ * elem_size_);
  }
  // Object header creation: a lookup (name resolution in the group) plus a
  // header write.
  file_.meta().meta_lookup(kObjectHeaderBytes);
  file_.meta().meta_update(kObjectHeaderBytes);
}

const ChunkCacheStats* Dataset::cache_stats() const {
  return cache_ ? &cache_->stats() : nullptr;
}

std::optional<Bytes> Dataset::chunk_offset(std::uint64_t chunk_index) const {
  const ChunkEntry* entry =
      cache_ ? cache_->table().find(chunk_index) : nullptr;
  return entry && entry->allocated() ? std::optional<Bytes>(entry->offset)
                                     : std::nullopt;
}

Bytes Dataset::ensure_chunk_allocated(ChunkEntry& entry) {
  if (!entry.allocated()) {
    entry.offset = file_.meta().alloc_raw(chunk_bytes());
    // Chunk-index insertion: B-tree record update.
    file_.meta().meta_update(kBtreeRecordBytes);
  }
  return entry.offset;
}

void Dataset::issue_writes(const std::vector<ByteExtent>& extents,
                           bool collective) {
  if (extents.empty()) return;
  if (collective) {
    std::vector<mpiio::Request> requests;
    requests.reserve(extents.size());
    for (const ByteExtent& e : extents) {
      requests.push_back({e.rank, e.offset, e.length});
    }
    file_.mpiio().write_at_all(requests);
  } else {
    for (const ByteExtent& e : extents) {
      file_.mpiio().write_at(e.rank, e.offset, e.length);
    }
  }
}

void Dataset::issue_reads(const std::vector<ByteExtent>& extents,
                          bool collective) {
  if (extents.empty()) return;
  if (collective) {
    std::vector<mpiio::Request> requests;
    requests.reserve(extents.size());
    for (const ByteExtent& e : extents) {
      requests.push_back({e.rank, e.offset, e.length});
    }
    file_.mpiio().read_at_all(requests);
  } else {
    for (const ByteExtent& e : extents) {
      file_.mpiio().read_at(e.rank, e.offset, e.length);
    }
  }
}

void Dataset::write(const std::vector<Selection>& selections,
                    const TransferProps& dxpl) {
  TUNIO_CHECK_MSG(!closed_, "write on closed dataset: " + name_);
  for (const Selection& sel : selections) {
    TUNIO_CHECK_MSG(sel.start_element + sel.count <= num_elements_,
                    "selection out of bounds in " + name_);
    ++stats_.h5_writes;
    stats_.bytes_written += sel.count * elem_size_;
  }
  if (chunked()) {
    write_chunked(selections, dxpl);
  } else {
    write_contiguous(selections, dxpl);
  }
}

void Dataset::read(const std::vector<Selection>& selections,
                   const TransferProps& dxpl) {
  TUNIO_CHECK_MSG(!closed_, "read on closed dataset: " + name_);
  for (const Selection& sel : selections) {
    TUNIO_CHECK_MSG(sel.start_element + sel.count <= num_elements_,
                    "selection out of bounds in " + name_);
    ++stats_.h5_reads;
    stats_.bytes_read += sel.count * elem_size_;
  }
  if (chunked()) {
    read_chunked(selections, dxpl);
  } else {
    read_contiguous(selections, dxpl);
  }
}

void Dataset::flush_sieve(unsigned rank) {
  auto it = sieves_.find(rank);
  if (it == sieves_.end() || it->second.length == 0) return;
  SieveWindow& window = it->second;
  if (window.dirty) {
    ++stats_.sieve_flushes;
    file_.mpiio().write_at(rank, window.offset, window.length);
  }
  window = SieveWindow{};
}

void Dataset::write_contiguous(const std::vector<Selection>& selections,
                               const TransferProps& dxpl) {
  const Bytes sieve_cap = file_.fapl().sieve_buf_size;
  std::vector<ByteExtent> direct;
  for (const Selection& sel : selections) {
    const Bytes offset = base_offset_ + sel.start_element * elem_size_;
    const Bytes length = sel.count * elem_size_;
    if (dxpl.collective || length >= sieve_cap) {
      // Large or collective accesses bypass the sieve buffer (HDF5 only
      // sieves small independent raw-data accesses).
      flush_sieve(sel.rank);
      direct.push_back({sel.rank, offset, length});
      continue;
    }
    SieveWindow& window = sieves_[sel.rank];
    const bool extends =
        window.length > 0 && offset == window.offset + window.length &&
        window.length + length <= sieve_cap;
    if (extends) {
      window.length += length;
      window.dirty = true;
    } else {
      flush_sieve(sel.rank);
      window = SieveWindow{offset, length, /*dirty=*/true};
    }
  }
  issue_writes(direct, dxpl.collective);
}

void Dataset::read_contiguous(const std::vector<Selection>& selections,
                              const TransferProps& dxpl) {
  const Bytes sieve_cap = file_.fapl().sieve_buf_size;
  std::vector<ByteExtent> direct;
  for (const Selection& sel : selections) {
    const Bytes offset = base_offset_ + sel.start_element * elem_size_;
    const Bytes length = sel.count * elem_size_;
    if (dxpl.collective || length >= sieve_cap) {
      direct.push_back({sel.rank, offset, length});
      continue;
    }
    SieveWindow& window = sieves_[sel.rank];
    const bool inside = window.length > 0 && offset >= window.offset &&
                        offset + length <= window.offset + window.length;
    if (!inside) {
      flush_sieve(sel.rank);
      // Sieve read-ahead: pull a whole buffer's worth starting here.
      const Bytes ahead = std::min<Bytes>(
          sieve_cap, base_offset_ + num_elements_ * elem_size_ - offset);
      file_.mpiio().read_at(sel.rank, offset, ahead);
      window = SieveWindow{offset, ahead, /*dirty=*/false};
    }
  }
  issue_reads(direct, dxpl.collective);
}

void Dataset::write_back_chunk(unsigned rank, ChunkEntry& entry) {
  const Bytes offset = ensure_chunk_allocated(entry);
  file_.mpiio().write_at(rank, offset, chunk_bytes());
}

void Dataset::write_chunked(const std::vector<Selection>& selections,
                            const TransferProps& dxpl) {
  std::vector<ByteExtent> direct_writes;
  for (const Selection& sel : selections) {
    std::uint64_t element = sel.start_element;
    std::uint64_t remaining = sel.count;
    while (remaining > 0) {
      const std::uint64_t chunk_index = element / chunk_elements_;
      const std::uint64_t within = element % chunk_elements_;
      const std::uint64_t take =
          std::min<std::uint64_t>(remaining, chunk_elements_ - within);
      const Bytes covered = take * elem_size_;

      // Chunk-index traversal: one metadata lookup per chunk touch.
      file_.meta().meta_lookup(kBtreeRecordBytes);

      ChunkEntry& entry = cache_->table().at(chunk_index);
      const CacheOutcome outcome = cache_->touch_write(
          {sel.rank, chunk_index}, entry, covered, entry.allocated());

      if (outcome.evicted_dirty) {
        write_back_chunk(outcome.evicted_dirty->rank, *outcome.evicted_entry);
      }
      if (outcome.bypass) {
        const Bytes chunk_off = ensure_chunk_allocated(entry);
        if (outcome.needs_preread) {
          ++stats_.chunk_prereads;
          file_.mpiio().read_at(sel.rank, chunk_off, chunk_bytes());
        }
        direct_writes.push_back(
            {sel.rank, chunk_off + within * elem_size_, covered});
      } else if (outcome.needs_preread) {
        // Partial write to a non-resident, existing chunk: fetch it.
        ++stats_.chunk_prereads;
        const Bytes chunk_off = ensure_chunk_allocated(entry);
        file_.mpiio().read_at(sel.rank, chunk_off, chunk_bytes());
      }
      element += take;
      remaining -= take;
    }
  }
  issue_writes(direct_writes, dxpl.collective);
}

void Dataset::read_chunked(const std::vector<Selection>& selections,
                           const TransferProps& dxpl) {
  std::vector<ByteExtent> direct_reads;
  for (const Selection& sel : selections) {
    std::uint64_t element = sel.start_element;
    std::uint64_t remaining = sel.count;
    while (remaining > 0) {
      const std::uint64_t chunk_index = element / chunk_elements_;
      const std::uint64_t within = element % chunk_elements_;
      const std::uint64_t take =
          std::min<std::uint64_t>(remaining, chunk_elements_ - within);

      file_.meta().meta_lookup(kBtreeRecordBytes);
      ChunkEntry& entry = cache_->table().at(chunk_index);
      const CacheOutcome outcome =
          cache_->touch_read({sel.rank, chunk_index}, entry);
      if (outcome.evicted_dirty) {
        write_back_chunk(outcome.evicted_dirty->rank, *outcome.evicted_entry);
      }
      const Bytes chunk_off = ensure_chunk_allocated(entry);
      if (outcome.bypass) {
        direct_reads.push_back(
            {sel.rank, chunk_off + within * elem_size_, take * elem_size_});
      } else if (!outcome.hit) {
        // Miss: the whole chunk is fetched into the cache.
        file_.mpiio().read_at(sel.rank, chunk_off, chunk_bytes());
      }
      element += take;
      remaining -= take;
    }
  }
  issue_reads(direct_reads, dxpl.collective);
}

void Dataset::flush() {
  for (auto& [rank, window] : sieves_) {
    if (window.length > 0 && window.dirty) {
      ++stats_.sieve_flushes;
      file_.mpiio().write_at(rank, window.offset, window.length);
    }
    window = SieveWindow{};
  }
  if (cache_) {
    cache_->flush_dirty([this](const ChunkKey& key, ChunkEntry& entry) {
      write_back_chunk(key.rank, entry);
    });
  }
}

void Dataset::close() {
  if (closed_) return;
  flush();
  // Final attribute/object-header update on close.
  file_.meta().meta_update(kAttributeBytes);
  closed_ = true;
}

}  // namespace tunio::h5
