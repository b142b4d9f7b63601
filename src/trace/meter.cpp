#include "trace/meter.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace tunio::trace {

RunMeter::RunMeter(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs)
    : mpi_(mpi), fs_(fs) {}

RunMeter::~RunMeter() { detach(); }

void RunMeter::detach() {
  if (fs_.io_observer() == this) fs_.set_io_observer(prev_observer_);
}

void RunMeter::IoWindow::cover(SimSeconds start, SimSeconds end) {
  if (!seen) {
    seen = true;
    first_start = start;
    last_end = end;
    return;
  }
  first_start = std::min(first_start, start);
  last_end = std::max(last_end, end);
}

void RunMeter::on_io(const pfs::IoRequest& request) {
  if (active_) {
    (request.is_write ? write_window_ : read_window_)
        .cover(request.start, request.end);
  }
  if (prev_observer_ != nullptr) prev_observer_->on_io(request);
}

void RunMeter::begin() {
  TUNIO_CHECK_MSG(!active_, "RunMeter::begin while active");
  active_ = true;
  current_ = Phase::kOther;
  run_start_ = mpi_.max_clock();
  phase_start_ = run_start_;
  snapshot_ = fs_.counters();
  counters_ = {};
  read_window_ = {};
  write_window_ = {};
  if (fs_.io_observer() != this) {
    prev_observer_ = fs_.io_observer();
    fs_.set_io_observer(this);
  }
}

void RunMeter::close_phase() {
  const SimSeconds now = mpi_.max_clock();
  const SimSeconds span = now - phase_start_;
  const char* label = "other";
  switch (current_) {
    case Phase::kRead:
      counters_.read_time += span;
      label = "read";
      break;
    case Phase::kWrite:
      counters_.write_time += span;
      label = "write";
      break;
    case Phase::kOther:
      counters_.other_time += span;
      break;
  }
  obs::Tracer& tracer = obs::Tracer::global();
  if (span > 0.0 && tracer.enabled()) {
    tracer.span("run", label, phase_start_, now, obs::kPidRun, /*tid=*/0);
  }
  phase_start_ = now;
}

void RunMeter::phase_begin(Phase phase) {
  TUNIO_CHECK_MSG(active_, "RunMeter::phase_begin before begin");
  close_phase();
  current_ = phase;
}

PerfResult RunMeter::end() {
  TUNIO_CHECK_MSG(active_, "RunMeter::end before begin");
  close_phase();
  active_ = false;
  detach();

  pfs::PfsCounters delta = fs_.counters();
  delta -= snapshot_;
  counters_.bytes_read = delta.bytes_read;
  counters_.bytes_written = delta.bytes_written;
  counters_.read_ops = delta.reads;
  counters_.write_ops = delta.writes;
  counters_.metadata_ops = delta.metadata_ops;
  counters_.read_sizes = delta.read_sizes;
  counters_.write_sizes = delta.write_sizes;
  counters_.elapsed = mpi_.max_clock() - run_start_;

  PerfResult result;
  result.counters = counters_;
  const double total_bytes = static_cast<double>(counters_.bytes_read) +
                             static_cast<double>(counters_.bytes_written);
  result.alpha = total_bytes > 0.0
                     ? static_cast<double>(counters_.bytes_written) /
                           total_bytes
                     : 0.0;
  if (counters_.read_time > 0.0 && counters_.bytes_read > 0) {
    result.bw_read_mbps =
        to_mbps(static_cast<double>(counters_.bytes_read) /
                counters_.read_time);
  }
  if (counters_.write_time > 0.0 && counters_.bytes_written > 0) {
    result.bw_write_mbps =
        to_mbps(static_cast<double>(counters_.bytes_written) /
                counters_.write_time);
  }
  // Directions with I/O but no marked phase: measure over the op-level
  // window [first request issued, last request completed) collected by
  // the I/O observer. This fixes unphased runs reporting zero bandwidth
  // and no longer dilutes the rate with compute time, which the old
  // whole-run-elapsed fallback did.
  if (counters_.read_time == 0.0 && counters_.bytes_read > 0 &&
      read_window_.span() > 0.0) {
    result.bw_read_mbps = to_mbps(static_cast<double>(counters_.bytes_read) /
                                  read_window_.span());
  }
  if (counters_.write_time == 0.0 && counters_.bytes_written > 0 &&
      write_window_.span() > 0.0) {
    result.bw_write_mbps = to_mbps(
        static_cast<double>(counters_.bytes_written) / write_window_.span());
  }
  // Last resort (no observer data, e.g. counters advanced while another
  // meter held the observer slot): whole-run elapsed bandwidth.
  if (counters_.read_time == 0.0 && counters_.write_time == 0.0 &&
      counters_.elapsed > 0.0) {
    if (counters_.bytes_read > 0 && result.bw_read_mbps == 0.0) {
      result.bw_read_mbps = to_mbps(
          static_cast<double>(counters_.bytes_read) / counters_.elapsed);
    }
    if (counters_.bytes_written > 0 && result.bw_write_mbps == 0.0) {
      result.bw_write_mbps = to_mbps(
          static_cast<double>(counters_.bytes_written) / counters_.elapsed);
    }
  }
  result.perf_mbps =
      perf_objective(result.bw_read_mbps, result.bw_write_mbps, result.alpha);

  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.span("run", "metered_run", run_start_, run_start_ + counters_.elapsed,
                obs::kPidRun, /*tid=*/1,
                {{"perf_mbps", obs::json_number(result.perf_mbps)},
                 {"bw_read_mbps", obs::json_number(result.bw_read_mbps)},
                 {"bw_write_mbps", obs::json_number(result.bw_write_mbps)},
                 {"alpha", obs::json_number(result.alpha)}});
  }
  return result;
}

double perf_objective(double bw_read_mbps, double bw_write_mbps,
                      double alpha) {
  return (1.0 - alpha) * bw_read_mbps + alpha * bw_write_mbps;
}

}  // namespace tunio::trace
