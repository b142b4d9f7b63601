#include "mpisim/mpisim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::mpisim {

namespace {

/// Cached handles into the global registry (see PfsMetrics for rationale).
struct MpiMetrics {
  obs::Counter& barriers;
  obs::Counter& allreduces;
  obs::Counter& gathers;
  obs::Counter& broadcasts;
  obs::Counter& sends;
  obs::Counter& collective_bytes;
  obs::Gauge& sync_stall_seconds;

  static MpiMetrics& get() {
    static MpiMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new MpiMetrics{
          registry.counter("mpi.barriers"),
          registry.counter("mpi.allreduces"),
          registry.counter("mpi.gathers"),
          registry.counter("mpi.broadcasts"),
          registry.counter("mpi.sends"),
          registry.counter("mpi.collective_bytes"),
          registry.gauge("mpi.sync_stall_seconds"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

MpiSim::MpiSim(unsigned num_ranks) : clocks_(num_ranks, 0.0) {
  TUNIO_CHECK_MSG(num_ranks > 0, "MPI job needs at least one rank");
}

MpiSim::~MpiSim() { publish_metrics(); }

void MpiSim::publish_metrics() {
  MpiMetrics& metrics = MpiMetrics::get();
  metrics.barriers.add(barriers_);
  metrics.allreduces.add(allreduces_);
  metrics.gathers.add(gathers_);
  metrics.broadcasts.add(broadcasts_);
  metrics.sends.add(sends_);
  metrics.collective_bytes.add(collective_bytes_);
  metrics.sync_stall_seconds.add(sync_stall_seconds_);
  barriers_ = allreduces_ = gathers_ = broadcasts_ = sends_ = 0;
  collective_bytes_ = 0;
  sync_stall_seconds_ = 0.0;
}

void MpiSim::note_collective(const char* name, std::uint64_t& counter,
                             SimSeconds start, SimSeconds end, Bytes bytes) {
  ++counter;
  collective_bytes_ += bytes;
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.span("mpi", name, start, end, obs::kPidStack, /*tid=*/1,
                {{"ranks", std::to_string(size())},
                 {"bytes", std::to_string(bytes)}});
  }
}

unsigned MpiSim::num_nodes() const {
  return (size() + kRanksPerNode - 1) / kRanksPerNode;
}

SimSeconds MpiSim::clock(unsigned rank) const {
  TUNIO_CHECK_MSG(rank < size(), "rank out of range");
  return clocks_[rank];
}

void MpiSim::set_clock(unsigned rank, SimSeconds t) {
  TUNIO_CHECK_MSG(rank < size(), "rank out of range");
  clocks_[rank] = t;
}

void MpiSim::compute(unsigned rank, SimSeconds seconds) {
  TUNIO_CHECK_MSG(rank < size(), "rank out of range");
  TUNIO_CHECK_MSG(seconds >= 0.0, "negative compute time");
  clocks_[rank] += seconds;
}

SimSeconds MpiSim::max_clock() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

SimSeconds MpiSim::min_clock() const {
  return *std::min_element(clocks_.begin(), clocks_.end());
}

SimSeconds MpiSim::tree_latency() const {
  const double levels = std::ceil(std::log2(std::max(2u, size())));
  return kHopLatency * levels;
}

void MpiSim::barrier() {
  const SimSeconds first = min_clock();
  const SimSeconds leave = max_clock() + tree_latency();
  for (SimSeconds c : clocks_) sync_stall_seconds_ += leave - c;
  std::fill(clocks_.begin(), clocks_.end(), leave);
  note_collective("barrier", barriers_, first, leave, 0);
}

void MpiSim::allreduce(Bytes bytes) {
  const SimSeconds first = min_clock();
  const SimSeconds payload =
      2.0 * static_cast<double>(bytes) / kLinkBandwidth;
  const SimSeconds leave = max_clock() + 2.0 * tree_latency() + payload;
  for (SimSeconds c : clocks_) sync_stall_seconds_ += leave - c;
  std::fill(clocks_.begin(), clocks_.end(), leave);
  note_collective("allreduce", allreduces_, first, leave, bytes * size());
}

void MpiSim::gather(unsigned root, Bytes bytes_per_rank) {
  TUNIO_CHECK_MSG(root < size(), "root out of range");
  const SimSeconds first = clocks_[root];
  const SimSeconds payload =
      static_cast<double>(bytes_per_rank) * (size() - 1) /
      kLinkBandwidth;
  clocks_[root] = max_clock() + tree_latency() + payload;
  note_collective("gather", gathers_, first, clocks_[root],
                  bytes_per_rank * (size() - 1));
}

void MpiSim::broadcast(unsigned root, Bytes bytes) {
  TUNIO_CHECK_MSG(root < size(), "root out of range");
  const SimSeconds first = clocks_[root];
  const SimSeconds payload =
      static_cast<double>(bytes) / kLinkBandwidth;
  const SimSeconds leave = clocks_[root] + tree_latency() + payload;
  for (SimSeconds& c : clocks_) c = std::max(c, leave);
  note_collective("broadcast", broadcasts_, first, leave, bytes);
}

void MpiSim::send(unsigned src, unsigned dst, Bytes bytes) {
  TUNIO_CHECK_MSG(src < size() && dst < size(), "rank out of range");
  const SimSeconds payload =
      static_cast<double>(bytes) / kLinkBandwidth;
  const SimSeconds arrival = clocks_[src] + kHopLatency + payload;
  clocks_[dst] = std::max(clocks_[dst], arrival);
  note_collective("send", sends_, clocks_[src], arrival, bytes);
}

void MpiSim::reset() {
  publish_metrics();
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
}

}  // namespace tunio::mpisim
