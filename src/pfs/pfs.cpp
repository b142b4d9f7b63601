#include "pfs/pfs.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::pfs {

namespace {

/// Cached handles into the global registry — resolved once per process,
/// so publishing is a handful of relaxed atomic adds.
struct PfsMetrics {
  obs::Counter& reads;
  obs::Counter& writes;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Counter& metadata_ops;
  obs::Counter& rmw_bytes;
  obs::Counter& simulators;
  obs::Gauge& ost_busy_seconds;
  obs::Histogram& read_sizes;
  obs::Histogram& write_sizes;

  static PfsMetrics& get() {
    static PfsMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new PfsMetrics{
          registry.counter("pfs.reads"),
          registry.counter("pfs.writes"),
          registry.counter("pfs.bytes_read"),
          registry.counter("pfs.bytes_written"),
          registry.counter("pfs.metadata_ops"),
          registry.counter("pfs.rmw_bytes"),
          registry.counter("pfs.simulators_retired"),
          registry.gauge("pfs.ost_busy_seconds"),
          registry.histogram("pfs.read_size_bytes",
                             obs::darshan_size_bounds()),
          registry.histogram("pfs.write_size_bytes",
                             obs::darshan_size_bounds()),
      };
    }();
    return *metrics;
  }
};

std::vector<std::uint64_t> histogram_counts(const SizeHistogram& sizes) {
  return {sizes.counts.begin(), sizes.counts.end()};
}

}  // namespace

void SizeHistogram::record(Bytes size) {
  std::size_t bucket;
  if (size < 4 * KiB) bucket = 0;
  else if (size < 64 * KiB) bucket = 1;
  else if (size < 1 * MiB) bucket = 2;
  else if (size < 16 * MiB) bucket = 3;
  else bucket = 4;
  ++counts[bucket];
  largest = std::max(largest, size);
}

std::uint64_t SizeHistogram::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t c : counts) sum += c;
  return sum;
}

const char* SizeHistogram::label(std::size_t bucket) {
  static const char* kLabels[kBuckets] = {"<4K", "4K-64K", "64K-1M", "1M-16M",
                                          ">=16M"};
  return bucket < kBuckets ? kLabels[bucket] : "?";
}

SizeHistogram& SizeHistogram::operator-=(const SizeHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] -= other.counts[i];
  return *this;
}

PfsCounters& PfsCounters::operator-=(const PfsCounters& other) {
  reads -= other.reads;
  writes -= other.writes;
  bytes_read -= other.bytes_read;
  bytes_written -= other.bytes_written;
  metadata_ops -= other.metadata_ops;
  rmw_bytes -= other.rmw_bytes;
  read_sizes -= other.read_sizes;
  write_sizes -= other.write_sizes;
  return *this;
}

PfsSimulator::PfsSimulator(PfsProfile profile)
    : profile_(profile),
      osts_(profile.num_osts) {
  TUNIO_CHECK_MSG(profile_.num_osts > 0, "PFS needs at least one OST");
  TUNIO_CHECK_MSG(profile_.network.aggregate_bandwidth > 0.0,
                  "channel bandwidth must be > 0");
  TUNIO_CHECK_MSG(profile_.network.message_latency >= 0.0,
                  "negative channel latency");
  const OstProfile& ost = profile_.ost;
  TUNIO_CHECK_MSG(ost.stream_bandwidth > 0.0, "OST bandwidth must be > 0");
  TUNIO_CHECK_MSG(ost.rmw_block > 0, "RMW block must be > 0");
  TUNIO_CHECK_MSG(ost.seek_latency >= 0.0 && ost.request_overhead >= 0.0 &&
                      ost.rmw_read_factor >= 0.0,
                  "negative OST cost");
}

PfsSimulator::~PfsSimulator() {
  publish_metrics();
  PfsMetrics::get().simulators.add(1);
}

void PfsSimulator::publish_metrics() {
  // Publishing happens at coarse boundaries (teardown, reset, quiesce)
  // rather than per request: that keeps the hot I/O path free of shared
  // atomics, at the cost of the registry lagging by the runs in flight.
  PfsCounters delta = counters_;
  delta -= flushed_;
  flushed_ = counters_;
  PfsMetrics& metrics = PfsMetrics::get();
  metrics.reads.add(delta.reads);
  metrics.writes.add(delta.writes);
  metrics.bytes_read.add(delta.bytes_read);
  metrics.bytes_written.add(delta.bytes_written);
  metrics.metadata_ops.add(delta.metadata_ops);
  metrics.rmw_bytes.add(delta.rmw_bytes);
  metrics.read_sizes.add_bucketed(
      histogram_counts(delta.read_sizes), static_cast<double>(delta.bytes_read),
      static_cast<double>(delta.read_sizes.largest));
  metrics.write_sizes.add_bucketed(
      histogram_counts(delta.write_sizes),
      static_cast<double>(delta.bytes_written),
      static_cast<double>(delta.write_sizes.largest));
  // OST busy time needs no flushed-baseline: every publish point rewinds
  // the timelines (or destroys them), so each busy span is added once.
  SimSeconds busy = 0.0;
  for (const OstQueue& ost : osts_) busy += ost.busy;
  metrics.ost_busy_seconds.add(busy);
}

void PfsSimulator::note_io(bool is_write, Bytes length, SimSeconds start,
                           SimSeconds end) {
  if (observer_ != nullptr) {
    observer_->on_io(IoRequest{is_write, length, start, end});
  }
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.span("pfs", is_write ? "write" : "read", start, end,
                obs::kPidStack, /*tid=*/0,
                {{"bytes", obs::json_number(static_cast<double>(length))}});
  }
}

OpenResult PfsSimulator::create_file(const std::string& path, SimSeconds start,
                                     const CreateOptions& options) {
  const Bytes stripe_size =
      options.stripe_size.value_or(profile_.default_stripe_size);
  const unsigned stripe_count =
      options.stripe_count.value_or(profile_.default_stripe_count);
  File file{StripeLayout(stripe_size, stripe_count, next_ost_offset_,
                         profile_.num_osts),
            options.tier, 0,
            std::vector<Bytes>(profile_.num_osts, kNeverAccessed)};
  next_ost_offset_ = (next_ost_offset_ + stripe_count) % profile_.num_osts;
  auto [it, inserted] =
      index_.try_emplace(path, static_cast<FileHandle>(files_.size()));
  if (inserted) {
    files_.push_back(std::move(file));
  } else {
    // Truncate: the path keeps its handle, the file starts over.
    files_[it->second] = std::move(file);
  }
  return {it->second, metadata_op(start)};
}

OpenResult PfsSimulator::open_file(const std::string& path, SimSeconds start) {
  const std::optional<FileHandle> handle = find_file(path);
  TUNIO_CHECK_MSG(handle.has_value(), "unknown file: " + path);
  return {*handle, metadata_op(start)};
}

std::optional<FileHandle> PfsSimulator::find_file(
    const std::string& path) const {
  auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

SimSeconds PfsSimulator::remove(const std::string& path, SimSeconds start) {
  // Only the name goes away; the file object stays behind so any handle
  // already resolved for this path keeps working (POSIX unlink-with-open-fd
  // semantics). `reset()` reclaims everything.
  index_.erase(path);
  return metadata_op(start);
}

SimSeconds PfsSimulator::metadata_op(SimSeconds start) {
  ++counters_.metadata_ops;
  return mds_.acquire(start, profile_.mds.op_latency).end;
}

SimSeconds PfsSimulator::memory_io(SimSeconds start, Bytes length) const {
  return start + profile_.memory.latency +
         static_cast<double>(length) / profile_.memory.bandwidth;
}

SimSeconds PfsSimulator::piece_service(Bytes object_offset, Bytes length,
                                       bool sequential, bool is_write) {
  const OstProfile& prof = profile_.ost;
  // Sequentiality: a piece that continues where the previous one on its
  // OST object ended skips the seek. (kNeverAccessed never compares equal
  // to a real offset, so the first piece on an object always seeks.)
  SimSeconds service =
      prof.request_overhead +
      static_cast<double>(length) / prof.stream_bandwidth;
  if (sequential) return service;
  service += prof.seek_latency;

  if (is_write) {
    // Partial leading/trailing device blocks force a read-modify-write:
    // the untouched remainder of each partial block must be pre-read.
    // Sequential appends are exempt — client page caches absorb streaming
    // partial blocks and flush them whole.
    const Bytes block = prof.rmw_block;
    const Bytes head_pad = object_offset % block;
    const Bytes tail_end = (object_offset + length) % block;
    Bytes pre_read = 0;
    if (head_pad != 0) pre_read += head_pad;
    if (tail_end != 0 && length + head_pad > tail_end) {
      pre_read += block - tail_end;
    }
    if (length + pre_read < block && pre_read > 0) {
      // Tiny write inside one block: cap the pre-read at one block.
      pre_read = std::min<Bytes>(pre_read, block);
    }
    if (pre_read > 0) {
      service += prof.rmw_read_factor *
                 static_cast<double>(pre_read) / prof.stream_bandwidth;
      counters_.rmw_bytes += pre_read;
    }
  }
  return service;
}

template <bool kWrite>
SimSeconds PfsSimulator::serve_pieces(File& file, SimSeconds start,
                                      Bytes offset, Bytes length) {
  // The request's stripe pieces, in file-offset order: the pieces
  // `StripeLayout::split` lists. The divisions happen once, here; each
  // later piece steps its OST and object offset by addition. With one
  // stripe the request is a single piece at object offset `offset` (split
  // coalesces it).
  const StripeLayout& layout = file.layout;
  const Bytes unit = layout.stripe_size();
  const unsigned count = layout.stripe_count();
  const unsigned num_osts = profile_.num_osts;
  const unsigned first_ost = layout.ost_offset() % num_osts;
  const Bytes stripe_index = offset / unit;
  const Bytes within = offset % unit;
  unsigned slot = static_cast<unsigned>(stripe_index % count);
  unsigned ost = (layout.ost_offset() + slot) % num_osts;
  Bytes round_base = stripe_index / count * unit;  // this round's objects
  const auto next_piece = [&] {
    if (++slot == count) {
      slot = 0;
      ost = first_ost;
      round_base += unit;
    } else if (++ost == num_osts) {
      ost = 0;
    }
  };

  Bytes* last_end = file.last_end_per_ost.data();
  OstQueue* osts = osts_.data();
  const Bps bandwidth = profile_.network.aggregate_bandwidth;
  const SimSeconds latency = profile_.network.message_latency;
  SimSeconds horizon = network_horizon_;
  SimSeconds done = start;
  // One piece through the interconnect and its OST's queue: a write
  // crosses the network, then the OST services it; a read is serviced,
  // then returns over the network. This is the per-extent oracle's
  // channel transfer (`SharedChannel::transfer` in tests/oracles/) and
  // `ResourceTimeline::acquire`, operation for operation. Service times
  // are never negative (the constructor checks the OST profile), so no
  // piece checks its own, and nothing here can throw: `horizon` is
  // always written back.
  const auto serve = [&](OstQueue& queue, SimSeconds service,
                         SimSeconds drain) {
    if constexpr (kWrite) {
      const SimSeconds sent = std::max(start, horizon);
      horizon = sent + drain;
      const SimSeconds arrived = sent + latency + drain;
      queue.next_free = std::max(arrived, queue.next_free) + service;
      queue.busy += service;
      done = std::max(done, queue.next_free);
    } else {
      queue.next_free = std::max(start, queue.next_free) + service;
      queue.busy += service;
      const SimSeconds sent = std::max(queue.next_free, horizon);
      horizon = sent + drain;
      done = std::max(done, sent + latency + drain);
    }
  };
  // The first and last pieces may be partial, and any piece may not
  // continue its object: those can seek and read-modify-write.
  const auto serve_any = [&](Bytes object_offset, Bytes piece) {
    const bool sequential = last_end[ost] == object_offset;
    last_end[ost] = object_offset + piece;
    serve(osts[ost], piece_service(object_offset, piece, sequential, kWrite),
          static_cast<double>(piece) / bandwidth);
  };

  const Bytes head = count == 1 ? length : std::min(length, unit - within);
  serve_any(round_base + within, head);
  if (const Bytes rest = length - head; rest > 0) {
    // Whole stripes, in runs on consecutive OSTs. One that continues its
    // object (all but, at most, the first on each OST) needs no seek and
    // no RMW, so they share one service and drain time. Per piece the
    // loop is the channel's and the queue's floating-point arithmetic,
    // one compare and the stores of the object's end and the queue: no
    // call, no division, no counter. Its time is the latency of the
    // horizon's chain. Integer and memory throughput, which slows most
    // when other work shares the core, is kept out of it, so the loop's
    // host time varies little from run to run.
    const Bytes whole = rest / unit;
    const Bytes tail = rest - whole * unit;
    const SimSeconds stripe_service =
        piece_service(/*object_offset=*/0, unit, /*sequential=*/true, kWrite);
    const SimSeconds stripe_drain = static_cast<double>(unit) / bandwidth;
    for (Bytes left = whole; left > 0;) {
      next_piece();
      const unsigned run = static_cast<unsigned>(
          std::min<Bytes>(left, std::min(count - slot, num_osts - ost)));
      const Bytes round_end = round_base + unit;
      for (unsigned o = ost, stop = ost + run; o != stop; ++o) {
        SimSeconds service = stripe_service;
        if (last_end[o] != round_base) [[unlikely]] {
          service = piece_service(round_base, unit, /*sequential=*/false,
                                  kWrite);
        }
        last_end[o] = round_end;
        serve(osts[o], service, stripe_drain);
      }
      slot += run - 1;
      ost += run - 1;
      left -= run;
    }
    if (tail > 0) {
      next_piece();
      serve_any(round_base, tail);
    }
  }
  network_horizon_ = horizon;
  return done;
}

SimSeconds PfsSimulator::request(FileHandle handle, SimSeconds start,
                                 Bytes offset, Bytes length, bool is_write) {
  File& file = file_at(handle);
  if (is_write) {
    ++counters_.writes;
    counters_.bytes_written += length;
    counters_.write_sizes.record(length);
    file.size = std::max(file.size, offset + length);
  } else {
    ++counters_.reads;
    counters_.bytes_read += length;
    counters_.read_sizes.record(length);
  }
  SimSeconds done = start;
  if (file.tier == Tier::kMemory) {
    done = memory_io(start, length);
  } else if (length > 0) {
    done = is_write ? serve_pieces<true>(file, start, offset, length)
                    : serve_pieces<false>(file, start, offset, length);
  }
  note_io(is_write, length, start, done);
  return done;
}

Bytes PfsSimulator::file_size(FileHandle handle) const {
  return file_at(handle).size;
}

Tier PfsSimulator::file_tier(FileHandle handle) const {
  return file_at(handle).tier;
}

const StripeLayout& PfsSimulator::file_layout(FileHandle handle) const {
  return file_at(handle).layout;
}

std::vector<SimSeconds> PfsSimulator::ost_busy_times() const {
  std::vector<SimSeconds> busy;
  busy.reserve(osts_.size());
  for (const OstQueue& ost : osts_) busy.push_back(ost.busy);
  return busy;
}

void PfsSimulator::reset() {
  publish_metrics();
  std::fill(osts_.begin(), osts_.end(), OstQueue{});
  mds_.reset();
  network_horizon_ = 0.0;
  files_.clear();
  index_.clear();
  counters_ = {};
  flushed_ = {};
  next_ost_offset_ = 0;
}

void PfsSimulator::quiesce() {
  publish_metrics();
  std::fill(osts_.begin(), osts_.end(), OstQueue{});
  mds_.reset();
  network_horizon_ = 0.0;
  for (File& file : files_) {
    std::fill(file.last_end_per_ost.begin(), file.last_end_per_ost.end(),
              kNeverAccessed);
  }
}

PfsSimulator::File& PfsSimulator::file_at(FileHandle handle) {
  TUNIO_CHECK_MSG(handle < files_.size(), "invalid file handle");
  return files_[handle];
}

const PfsSimulator::File& PfsSimulator::file_at(FileHandle handle) const {
  TUNIO_CHECK_MSG(handle < files_.size(), "invalid file handle");
  return files_[handle];
}

}  // namespace tunio::pfs
