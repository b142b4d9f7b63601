#include "oracles/shared_channel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio {

SharedChannel::SharedChannel(Bps aggregate_bandwidth,
                             SimSeconds message_latency)
    : bandwidth_(aggregate_bandwidth), latency_(message_latency) {
  TUNIO_CHECK_MSG(aggregate_bandwidth > 0.0, "channel bandwidth must be > 0");
  TUNIO_CHECK_MSG(message_latency >= 0.0, "negative channel latency");
}

SimSeconds SharedChannel::transfer(SimSeconds start, Bytes bytes) {
  // The channel's aggregate bandwidth is consumed in arrival order: a
  // transfer cannot begin draining before earlier traffic has drained.
  const SimSeconds drain = static_cast<double>(bytes) / bandwidth_;
  const SimSeconds begin = std::max(start, horizon_);
  horizon_ = begin + drain;
  bytes_moved_ += bytes;
  ++transfers_;
  return begin + latency_ + drain;
}

void SharedChannel::reset() {
  horizon_ = 0.0;
  bytes_moved_ = 0;
  transfers_ = 0;
}

}  // namespace tunio
