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
      osts_(profile.num_osts),
      network_(profile.network.aggregate_bandwidth,
               profile.network.message_latency) {
  TUNIO_CHECK_MSG(profile_.num_osts > 0, "PFS needs at least one OST");
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
  for (const ResourceTimeline& ost : osts_) busy += ost.busy_time();
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

SimSeconds PfsSimulator::service_extent(File& file, const StripeExtent& extent,
                                        SimSeconds start, bool is_write) {
  ResourceTimeline& ost = osts_[extent.ost];
  const OstProfile& prof = profile_.ost;

  // Sequentiality: a request that continues where the previous one on this
  // OST object ended skips the seek. (kNeverAccessed never compares equal
  // to a real offset, so the first request on an object always seeks.)
  Bytes& last_end = file.last_end_per_ost[extent.ost];
  const bool sequential = last_end == extent.object_offset;
  last_end = extent.object_offset + extent.length;

  SimSeconds service = prof.request_overhead +
                       static_cast<double>(extent.length) /
                           prof.stream_bandwidth;
  if (!sequential) service += prof.seek_latency;

  if (is_write && !sequential) {
    // Partial leading/trailing device blocks force a read-modify-write:
    // the untouched remainder of each partial block must be pre-read.
    // Sequential appends are exempt — client page caches absorb streaming
    // partial blocks and flush them whole.
    const Bytes block = prof.rmw_block;
    const Bytes head_pad = extent.object_offset % block;
    const Bytes tail_end = (extent.object_offset + extent.length) % block;
    Bytes pre_read = 0;
    if (head_pad != 0) pre_read += head_pad;
    if (tail_end != 0 && extent.length + head_pad > tail_end) {
      pre_read += block - tail_end;
    }
    if (extent.length + pre_read < block && pre_read > 0) {
      // Tiny write inside one block: cap the pre-read at one block.
      pre_read = std::min<Bytes>(pre_read, block);
    }
    if (pre_read > 0) {
      service += prof.rmw_read_factor *
                 static_cast<double>(pre_read) / prof.stream_bandwidth;
      counters_.rmw_bytes += pre_read;
    }
  }

  if (is_write) {
    // Data crosses the network to the server, then the OST services it.
    const SimSeconds arrived = network_.transfer(start, extent.length);
    return ost.acquire(arrived, service).end;
  }
  // Reads: OST services the request, then data returns over the network.
  const SimSeconds served = ost.acquire(start, service).end;
  return network_.transfer(served, extent.length);
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
  } else {
    file.layout.for_each_extent(
        offset, length, [&](const StripeExtent& extent) {
          done = std::max(done, service_extent(file, extent, start, is_write));
        });
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
  for (const ResourceTimeline& ost : osts_) busy.push_back(ost.busy_time());
  return busy;
}

void PfsSimulator::reset() {
  publish_metrics();
  for (ResourceTimeline& ost : osts_) ost.reset();
  mds_.reset();
  network_.reset();
  files_.clear();
  index_.clear();
  counters_ = {};
  flushed_ = {};
  next_ost_offset_ = 0;
}

void PfsSimulator::quiesce() {
  publish_metrics();
  for (ResourceTimeline& ost : osts_) ost.reset();
  mds_.reset();
  network_.reset();
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
