#include "common/timeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio {

ResourceTimeline::Grant ResourceTimeline::acquire(SimSeconds earliest_start,
                                                  SimSeconds duration) {
  TUNIO_CHECK_MSG(duration >= 0.0, "negative service duration");
  Grant grant;
  grant.begin = std::max(earliest_start, next_free_);
  grant.end = grant.begin + duration;
  next_free_ = grant.end;
  busy_time_ += duration;
  return grant;
}

void ResourceTimeline::reset() {
  next_free_ = 0.0;
  busy_time_ = 0.0;
}

}  // namespace tunio
