#include "mpiio/mpiio.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio::mpiio {

namespace {

/// Rounds `value` down to a multiple of `granule` (granule > 0).
Bytes align_down(Bytes value, Bytes granule) {
  return value / granule * granule;
}

}  // namespace

MpiIoFile::MpiIoFile(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                     std::string path, Hints hints,
                     const pfs::CreateOptions& create_options)
    : mpi_(mpi), fs_(fs), path_(std::move(path)), hints_(hints) {
  TUNIO_CHECK_MSG(hints_.cb_nodes > 0, "cb_nodes must be positive");
  TUNIO_CHECK_MSG(hints_.cb_buffer_size > 0, "cb_buffer_size must be positive");
  // File open/create is a synchronizing metadata operation performed once
  // on behalf of the communicator (rank 0 does the MDS round-trip).
  mpi_.barrier();
  const SimSeconds t = mpi_.max_clock();
  const pfs::OpenResult opened = fs_.find_file(path_)
                                     ? fs_.open_file(path_, t)
                                     : fs_.create_file(path_, t, create_options);
  handle_ = opened.handle;
  for (unsigned r = 0; r < mpi_.size(); ++r) mpi_.set_clock(r, opened.done);
}

void MpiIoFile::write_at(unsigned rank, Bytes offset, Bytes length) {
  TUNIO_CHECK_MSG(open_, "write on closed file");
  if (length == 0) return;
  ++counters_.independent_writes;
  const SimSeconds done = fs_.write(handle_, mpi_.clock(rank), offset, length);
  mpi_.set_clock(rank, done);
}

void MpiIoFile::read_at(unsigned rank, Bytes offset, Bytes length) {
  TUNIO_CHECK_MSG(open_, "read on closed file");
  if (length == 0) return;
  ++counters_.independent_reads;
  const SimSeconds done = fs_.read(handle_, mpi_.clock(rank), offset, length);
  mpi_.set_clock(rank, done);
}

bool MpiIoFile::use_collective_buffering(
    const std::vector<Request>& requests) const {
  switch (hints_.collective) {
    case CollectiveMode::kEnable:
      return true;
    case CollectiveMode::kDisable:
      return false;
    case CollectiveMode::kAuto:
      break;
  }
  // ROMIO's heuristic, simplified: collective buffering pays off when many
  // ranks contribute small or interleaved extents; large contiguous
  // per-rank extents go independent.
  Bytes total = 0;
  unsigned active = 0;
  for (const Request& r : requests) {
    total += r.length;
    if (r.length > 0) ++active;
  }
  if (active <= 1) return false;
  const Bytes avg = total / active;
  return avg < 4 * MiB;
}

std::vector<MpiIoFile::Extent> MpiIoFile::coalesce(
    const std::vector<Request>& requests) {
  std::vector<Extent> extents;
  extents.reserve(requests.size());
  for (const Request& r : requests) {
    if (r.length > 0) extents.push_back({r.offset, r.length});
  }
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) { return a.offset < b.offset; });
  std::vector<Extent> merged;
  for (const Extent& e : extents) {
    if (!merged.empty() &&
        merged.back().offset + merged.back().length >= e.offset) {
      const Bytes end = std::max(merged.back().offset + merged.back().length,
                                 e.offset + e.length);
      merged.back().length = end - merged.back().offset;
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

void MpiIoFile::two_phase(const std::vector<Request>& requests,
                          bool is_write) {
  // Phase 0: everyone arrives; offsets/lengths are exchanged (allreduce of
  // a small descriptor vector).
  mpi_.allreduce(64);
  const SimSeconds start = mpi_.max_clock();

  const std::vector<Extent> extents = coalesce(requests);
  if (extents.empty()) {
    mpi_.barrier();
    return;
  }
  const Bytes domain_lo = extents.front().offset;
  const Bytes domain_hi = extents.back().offset + extents.back().length;

  // Partition the file domain across aggregators, aligning boundaries to
  // the file's stripe size so each aggregator's chunks hit disjoint OSTs.
  // The aligned shares must jointly cover [domain_lo, domain_hi) — the
  // partition starts at the stripe-aligned base below domain_lo and
  // rounds the per-aggregator share up to a stripe multiple.
  const unsigned aggregators =
      std::min(hints_.cb_nodes, mpi_.size());
  const Bytes stripe = fs_.file_layout(handle_).stripe_size();
  const Bytes base = align_down(domain_lo, stripe);
  const Bytes span = domain_hi - base;
  const Bytes raw_share = (span + aggregators - 1) / aggregators;
  const Bytes share = std::max<Bytes>(
      stripe, (raw_share + stripe - 1) / stripe * stripe);

  // Aggregators proceed in parallel; each one shuffles its domain's bytes
  // from producer ranks, then streams cb_buffer_size chunks to the PFS.
  SimSeconds op_end = start;
  for (unsigned a = 0; a < aggregators; ++a) {
    const Bytes dom_lo = base + share * a;
    const Bytes dom_hi = dom_lo + share;
    SimSeconds agg_clock = start;
    for (const Extent& e : extents) {
      const Bytes lo = std::max(e.offset, dom_lo);
      const Bytes hi = std::min(e.offset + e.length, dom_hi);
      if (lo >= hi) continue;
      Bytes cursor = lo;
      while (cursor < hi) {
        const Bytes chunk = std::min<Bytes>(hints_.cb_buffer_size, hi - cursor);
        // Shuffle: the chunk's bytes cross the interconnect once, bounded
        // by the aggregator's injection bandwidth.
        agg_clock += static_cast<double>(chunk) / mpisim::kLinkBandwidth +
                     mpisim::kHopLatency;
        counters_.shuffle_bytes += chunk;
        ++counters_.aggregator_ops;
        agg_clock = is_write ? fs_.write(handle_, agg_clock, cursor, chunk)
                             : fs_.read(handle_, agg_clock, cursor, chunk);
        cursor += chunk;
      }
    }
    op_end = std::max(op_end, agg_clock);
  }

  // Phase 2: results/acknowledgements reach every rank.
  for (unsigned r = 0; r < mpi_.size(); ++r) mpi_.set_clock(r, op_end);
  mpi_.barrier();
}

void MpiIoFile::independent_all(const std::vector<Request>& requests,
                                bool is_write) {
  for (const Request& r : requests) {
    if (r.length == 0) continue;
    if (is_write) {
      const SimSeconds done =
          fs_.write(handle_, mpi_.clock(r.rank), r.offset, r.length);
      mpi_.set_clock(r.rank, done);
    } else {
      const SimSeconds done =
          fs_.read(handle_, mpi_.clock(r.rank), r.offset, r.length);
      mpi_.set_clock(r.rank, done);
    }
  }
  // write_at_all/read_at_all are collective calls: ranks leave together.
  mpi_.barrier();
}

void MpiIoFile::write_at_all(const std::vector<Request>& requests) {
  TUNIO_CHECK_MSG(open_, "write on closed file");
  ++counters_.collective_writes;
  if (use_collective_buffering(requests)) {
    two_phase(requests, /*is_write=*/true);
  } else {
    independent_all(requests, /*is_write=*/true);
  }
}

void MpiIoFile::read_at_all(const std::vector<Request>& requests) {
  TUNIO_CHECK_MSG(open_, "read on closed file");
  ++counters_.collective_reads;
  if (use_collective_buffering(requests)) {
    two_phase(requests, /*is_write=*/false);
  } else {
    independent_all(requests, /*is_write=*/false);
  }
}

void MpiIoFile::close() {
  if (!open_) return;
  open_ = false;
  mpi_.barrier();
  const SimSeconds done = fs_.metadata_op(mpi_.max_clock());
  for (unsigned r = 0; r < mpi_.size(); ++r) mpi_.set_clock(r, done);
}

}  // namespace tunio::mpiio
