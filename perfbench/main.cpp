// perfbench: the repository benchmark. Runs one tuning workload for a
// fixed host time and prints one JSON result line.
//
//   perfbench --workload <flash_tunio|hacc_bo|bdcats_service>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Set-up is repeated (cheap set-ups several times) and its median
// reported; then one untimed warm-up job runs, then whole tuning jobs run
// back to back until `--seconds` have passed, each from fresh per-job
// state, and the medians of their host times are reported. With
// `--trace 1`, untraced and traced jobs alternate: the traced ones give
// the per-layer metrics, the untraced ones the tracing overhead. Every
// job is checked: its evaluation count, results and work counters must
// equal the warm-up job's, and each best
// configuration must re-evaluate bit for bit on a fresh objective with
// replay off. A run that fails the check prints `"correct": false` and
// exits 1.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-up repeats until this many runs or this much host time.
constexpr std::size_t kMaxSetupRuns = 101;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"job_wall_s", "s"},
    {"evals_per_s", "1/s"},   {"tuned_mbps", "MB/s"},
    {"tuning_sim_min", "min"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"rl.train_s", "s"},
    {"rl.train_epochs", "count"},
    {"core.sweep_s", "s"},
    {"core.sweep_evals", "count"},
    {"discovery.discover_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"replay.gate_ms", "ms"},
    {"tuner.evals", "count"},
    {"tuner.proposals", "count"},
    {"tuner.fresh_ratio", "ratio"},
    {"tuner.eval_s", "s"},
    {"tuner.eval_share", "ratio"},
    {"tuner.eval_ms_p50", "ms"},
    {"tuner.eval_ms_p90", "ms"},
    {"tuner.eval_ms_samples", "count"},
    {"replay.replayed", "count"},
    {"replay.interpreted", "count"},
    {"replay.record_ms", "ms"},
    {"replay.verify_ms", "ms"},
    {"pfs.writes_per_eval", "count"},
    {"pfs.bytes_written_per_eval", "B"},
    {"pfs.rmw_bytes_per_eval", "B"},
    {"pfs.reads_per_eval", "count"},
    {"pfs.bytes_read_per_eval", "B"},
    {"pfs.metadata_ops_per_eval", "count"},
    {"hdf5lite.chunk_misses_per_eval", "count"},
    {"hdf5lite.chunk_hits_per_eval", "count"},
    {"hdf5lite.chunk_evictions_per_eval", "count"},
    {"hdf5lite.chunk_bypasses_per_eval", "count"},
    {"mpisim.barriers_per_eval", "count"},
    {"mpisim.collective_bytes_per_eval", "B"},
    {"tuners.strategy_s", "s"},
    {"tuners.strategy_share", "ratio"},
    {"tuners.iterations", "count"},
    {"rl.decide_ms", "ms"},
    {"rl.decisions", "count"},
    {"tuner.ga_self_s", "s"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.engine_tasks", "count"},
    {"service.engine_busy_share", "ratio"},
    {"service.job_turnaround_s.ga", "s"},
    {"service.job_turnaround_s.rule", "s"},
    {"service.job_turnaround_s.resume", "s"},
    {"trace.overhead_pct", "%"},
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Why `job` differs from `first` in anything but host time ("" if not).
std::string divergence(const Workload& workload, const JobResult& first,
                       const JobResult& job) {
  if (job.fresh_evals != first.fresh_evals) return "evaluation count";
  if (!same_bits(job.tuned_mbps, first.tuned_mbps)) return "tuned_mbps";
  if (!same_bits(job.sim_seconds, first.sim_seconds)) return "tuning_sim_min";
  if (job.bests.size() != first.bests.size()) return "best configurations";
  for (std::size_t i = 0; i < job.bests.size(); ++i) {
    if (job.bests[i].indices != first.bests[i].indices ||
        !same_bits(job.bests[i].perf_mbps, first.bests[i].perf_mbps)) {
      return "best configuration of job " + job.bests[i].job;
    }
  }
  for (const std::string& counter : workload.deterministic_counters()) {
    const auto a = first.counters.find(counter);
    const auto b = job.counters.find(counter);
    const std::uint64_t va = a == first.counters.end() ? 0 : a->second;
    const std::uint64_t vb = b == job.counters.end() ? 0 : b->second;
    if (va != vb) return "counter " + counter;
  }
  return "";
}

/// Re-evaluates every reported best on a fresh replay-off objective.
std::string reference_mismatch(const Workload& workload,
                               const JobResult& job) {
  if (job.bests.empty()) return "no best configuration";
  for (const BestConfig& best : job.bests) {
    const auto reference = workload.reference_objective(best);
    const double perf =
        reference
            ->evaluate(cfg::Configuration(best.space, best.indices))
            .perf_mbps;
    if (!same_bits(perf, best.perf_mbps)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "job %s best %.17g != reference %.17g",
                    best.job.c_str(), best.perf_mbps, perf);
      return buf;
    }
  }
  return "";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);

  // Set-up, repeated so that its median is steady.
  std::vector<double> setup_times;
  std::map<std::string, double> setup_layers;
  double setup_total = 0.0;
  do {
    SpanLog log(args.trace);
    const Clock::time_point start = Clock::now();
    workload->setup(log);
    setup_times.push_back(seconds_since(start));
    setup_total += setup_times.back();
    if (args.trace) setup_layers = workload->setup_layers(log.spans());
  } while (setup_times.size() < kMaxSetupRuns && setup_total < kSetupSeconds);

  // One untimed warm-up job: it is checked like the others, but its time
  // is not reported. (A process's first FLASH job ran ~12% slower than
  // the median of its later ones.)
  const auto report = [](const std::string& label, const JobResult& job) {
    std::printf("%s: %.3f s, %llu evaluations, best %.1f MB/s\n",
                label.c_str(), job.wall_s,
                static_cast<unsigned long long>(job.fresh_evals),
                job.tuned_mbps);
  };
  JobResult warmup;
  {
    SpanLog log(false);
    warmup = workload->run_job(log);
    report("warm-up job", warmup);
  }

  // Jobs until the measuring time is up; traced and untraced alternate
  // when tracing.
  std::vector<JobResult> untraced, traced;
  const Clock::time_point measure_start = Clock::now();
  for (bool trace_next = false;; trace_next = !trace_next) {
    SpanLog log(args.trace && trace_next);
    JobResult job = workload->run_job(log);
    report("job " + std::to_string(untraced.size() + traced.size() + 1) +
               (log.enabled() ? " (traced)" : ""),
           job);
    (log.enabled() ? traced : untraced).push_back(std::move(job));
    if (seconds_since(measure_start) >= args.seconds &&
        (!args.trace || !traced.empty())) {
      break;
    }
  }

  // Correctness and determinism.
  const JobResult& first = warmup;
  std::uint64_t attempted = first.attempted, failed = first.failed;
  std::string problem = reference_mismatch(*workload, first);
  for (const std::vector<JobResult>* jobs : {&untraced, &traced}) {
    for (const JobResult& job : *jobs) {
      attempted += job.attempted;
      failed += job.failed;
      if (problem.empty()) {
        const std::string diff = divergence(*workload, first, job);
        if (!diff.empty()) problem = "jobs differ in " + diff;
      }
    }
  }
  const bool correct = problem.empty();
  if (!correct) std::printf("CHECK FAILED: %s\n", problem.c_str());

  std::vector<double> walls, rates;
  for (const JobResult& job : untraced) {
    walls.push_back(job.wall_s);
    rates.push_back(static_cast<double>(job.fresh_evals) / job.wall_s);
  }
  if (!args.trace) {
    const std::map<std::string, double> values = {
        {"setup_s", median(setup_times)},
        {"job_wall_s", median(walls)},
        {"evals_per_s", median(rates)},
        {"tuned_mbps", first.tuned_mbps},
        {"tuning_sim_min", first.sim_seconds / 60.0},
        {"peak_rss_mb", peak_rss_mb()},
    };
    print_result(correct, attempted, failed, kEndToEnd, values);
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_walls;
    for (const JobResult& job : traced) {
      traced_walls.push_back(job.wall_s);
      for (const auto& [name, value] : job.layers) {
        samples[name].push_back(value);
      }
    }
    std::map<std::string, double> values = setup_layers;
    for (const auto& [name, series] : samples) values[name] = median(series);
    values["trace.overhead_pct"] =
        (median(traced_walls) / median(walls) - 1.0) * 100.0;
    print_result(correct, attempted, failed, kPerLayer, values);
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1>\n");
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
