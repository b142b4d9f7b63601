// Return on Tuning Investment (RoTI), the paper's cost-benefit metric:
//
//   RoTI(t) = (perf_achieved(t) − perf_achieved(0)) / t
//
// where perf_achieved(t) is the maximum perf (MB/s) reached by time t in
// the tuning pipeline, perf_achieved(0) the default configuration's
// perf, and t the tuning overhead in minutes. "An RoTI of 40 MB/s per
// minute spent tuning would represent an increase in bandwidth of
// 40 MB/s for each minute of tuning overhead." (§IV)
#pragma once

#include <vector>

#include "tuner/objective.hpp"

namespace tunio::core {

struct RotiPoint {
  unsigned generation = 0;
  double minutes = 0.0;     ///< cumulative tuning overhead
  double best_perf = 0.0;   ///< perf_achieved(t), MB/s
  double roti = 0.0;        ///< MB/s per minute
};

/// RoTI after each completed generation of a tuning run.
std::vector<RotiPoint> roti_curve(const tuner::TuningResult& result);

/// RoTI at the end of the run.
double final_roti(const tuner::TuningResult& result);

/// Peak RoTI over the run and the minutes at which it occurs.
RotiPoint peak_roti(const tuner::TuningResult& result);

}  // namespace tunio::core
