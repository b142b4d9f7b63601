// Test-only oracle: the interconnect of the per-extent pfs model in
// tests/pfs_test.cpp. A `SharedChannel` models a bandwidth-shared medium:
// each transfer pays a fixed latency plus bytes/bandwidth, and aggregate
// utilization is tracked so that sustained overload stretches transfers.
// `PfsSimulator::serve_pieces` (src/pfs/pfs.cpp) inlines the same
// arithmetic on its own channel horizon.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace tunio {

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
