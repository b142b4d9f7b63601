// Resource timelines: the core primitive of the discrete-time simulator.
//
// A `ResourceTimeline` models a serially shared device (an OST, the
// metadata server, a network link): a request arriving at simulated time
// `t` with service duration `d` begins at `max(t, next_free)` and the
// resource stays busy until it finishes. Contention between simulated
// MPI ranks therefore emerges naturally — concurrent requests to the same
// OST queue behind each other, while requests to different OSTs proceed
// in parallel.
//
// A `SharedChannel` models a bandwidth-shared medium (the interconnect):
// each transfer pays a fixed latency plus bytes/bandwidth, and aggregate
// utilization is tracked so that sustained overload stretches transfers.
//
// The PFS simulator's per-stripe-piece loop (`PfsSimulator::serve_pieces`
// in `pfs/pfs.cpp`) repeats `acquire`'s and `transfer`'s arithmetic on its
// own plain OST queues and channel horizon, without a per-piece check or
// count; a change to either model must be made there too.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace tunio {

/// A serially shared resource with FIFO service.
class ResourceTimeline {
 public:
  struct Grant {
    SimSeconds begin = 0.0;  ///< when service actually started
    SimSeconds end = 0.0;    ///< when service completed
  };

  /// Requests `duration` seconds of exclusive service starting no earlier
  /// than `earliest_start`. Returns the granted [begin, end) interval and
  /// advances the resource's busy horizon.
  Grant acquire(SimSeconds earliest_start, SimSeconds duration);

  /// The earliest time a new request could begin service.
  SimSeconds next_free() const { return next_free_; }

  /// Total busy seconds granted so far (for utilization reports).
  SimSeconds busy_time() const { return busy_time_; }

  /// Number of grants issued.
  std::uint64_t grants() const { return grants_; }

  /// Forgets all scheduled work (fresh run on the same topology).
  void reset();

 private:
  SimSeconds next_free_ = 0.0;
  SimSeconds busy_time_ = 0.0;
  std::uint64_t grants_ = 0;
};

/// A bandwidth-shared channel with per-message latency.
///
/// Each transfer of `bytes` starting at `t` completes at
/// `max(t, horizon_credit) + latency + bytes / bandwidth`, where the
/// horizon models head-of-line pressure when offered load exceeds the
/// channel's aggregate bandwidth.
class SharedChannel {
 public:
  SharedChannel(Bps aggregate_bandwidth, SimSeconds message_latency);

  /// Schedules a transfer; returns its completion time.
  SimSeconds transfer(SimSeconds start, Bytes bytes);

  Bytes bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_; }

  void reset();

 private:
  Bps bandwidth_;
  SimSeconds latency_;
  SimSeconds horizon_ = 0.0;  ///< time through which aggregate bw is spoken for
  Bytes bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace tunio
