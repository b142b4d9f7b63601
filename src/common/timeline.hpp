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
// The PFS simulator's per-stripe-piece loop (`PfsSimulator::serve_pieces`
// in `pfs/pfs.cpp`) repeats `acquire`'s arithmetic on its own plain OST
// queues, and models the interconnect inline as a bandwidth-shared
// channel, without a per-piece check or count. The per-extent oracle in
// `tests/pfs_test.cpp` keeps both as objects (`ResourceTimeline` and the
// test-only `SharedChannel`); a change to either model must be made in
// both places.
#pragma once

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

  /// Forgets all scheduled work (fresh run on the same topology).
  void reset();

 private:
  SimSeconds next_free_ = 0.0;
  SimSeconds busy_time_ = 0.0;
};

}  // namespace tunio
