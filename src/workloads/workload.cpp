#include "workloads/workload.hpp"

#include <algorithm>
#include <cmath>

#include "workloads/detail.hpp"

namespace tunio::wl::detail {

unsigned reduce_iterations(unsigned original, double loop_scale) {
  if (loop_scale >= 1.0) return original;
  const double scaled = std::round(static_cast<double>(original) * loop_scale);
  return std::max(1u, static_cast<unsigned>(scaled));
}

double extrapolation_factor(unsigned original, unsigned reduced) {
  return static_cast<double>(original) / static_cast<double>(reduced);
}

}  // namespace tunio::wl::detail
