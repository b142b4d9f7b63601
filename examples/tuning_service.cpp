// Tuning as a service: a shared TuningServer handles several clients'
// jobs concurrently over one evaluation engine and one result cache.
//
// The scenario: a facility runs a central tuning service. Three client
// teams submit jobs for their applications (HACC, FLASH, VPIC I/O
// kernels); the server runs two at a time, fanning each generation out
// over the worker pool. Later, a second client re-tunes HACC — and pays
// almost nothing, because every evaluation its GA replays is already in
// the shared result cache. Finally the cache is persisted to JSON, the
// way a long-running service would checkpoint its accumulated knowledge.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "config/space.hpp"
#include "core/early_stopping.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/tuning_server.hpp"
#include "tuner/objective.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tunio;

std::shared_ptr<tuner::Objective> kernel_objective(
    std::unique_ptr<wl::Workload> workload) {
  tuner::TestbedOptions tb;
  tb.num_ranks = 32;
  tb.runs_per_eval = 3;
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;  // tune the I/O kernel, not the compute
  return std::shared_ptr<tuner::Objective>(tuner::make_workload_objective(
      std::shared_ptr<const wl::Workload>(std::move(workload)), tb, kernel));
}

void print_progress(const service::TuningServer& server,
                    const std::vector<service::JobId>& ids) {
  for (service::JobId id : ids) {
    const service::JobProgress p = server.progress(id);
    std::printf("  job %llu %-8s %-9s gen %3u  best %8.1f MB/s  "
                "budget %7.1f s  cache %llu/%llu\n",
                static_cast<unsigned long long>(p.id), p.name.c_str(),
                service::job_state_name(p.state).c_str(), p.generations_done,
                p.best_perf, p.seconds_spent,
                static_cast<unsigned long long>(p.cache_hits),
                static_cast<unsigned long long>(p.cache_hits +
                                                p.cache_misses));
  }
}

}  // namespace

int main() {
  // Record the whole service session as a Chrome trace: PFS requests and
  // MPI collectives on the per-run clock, GA generations and RL stop
  // decisions on the budget clock. The cap keeps the trace file small —
  // overflow is counted, not fatal.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_capacity(1u << 16);
  tracer.enable();

  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();

  service::ServerOptions options;
  options.max_concurrent_jobs = 2;  // two tuning jobs share the engine
  options.engine.workers = 4;
  std::printf("== tuning service: %u job slots, %u evaluation workers ==\n\n",
              options.max_concurrent_jobs, options.engine.workers);
  service::TuningServer server(space, options);

  tuner::GaOptions ga;
  ga.population = 8;
  ga.max_generations = 6;

  std::vector<service::JobId> ids;
  {
    service::JobSpec job;
    job.name = "hacc";
    job.objective = kernel_objective(wl::make_hacc({1u << 18}));
    job.ga = ga;
    // Consult the RL early-stopping agent after every generation. With
    // min_iterations (10) above this job's 6-generation budget it never
    // actually stops — but every consultation lands in the trace as an
    // "rl" decision with the agent's Q-values.
    auto stopper = std::make_shared<core::EarlyStopping>();
    job.stopper = [stopper](unsigned generation,
                            const tuner::TuningResult& progress) {
      return stopper->stop(generation, progress.best_perf);
    };
    ids.push_back(server.submit(job));
  }
  {
    service::JobSpec job;
    job.name = "flash";
    job.objective = kernel_objective(wl::make_flash({}));
    job.ga = ga;
    ids.push_back(server.submit(job));
  }
  {
    service::JobSpec job;
    job.name = "vpic";
    job.objective = kernel_objective(wl::make_vpic({1u << 16}));
    job.ga = ga;
    ids.push_back(server.submit(job));
  }

  std::printf("three jobs submitted; polling while the server works:\n");
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    print_progress(server, ids);
    std::printf("\n");
    bool all_done = true;
    for (service::JobId id : ids) {
      const service::JobState state = server.progress(id).state;
      all_done = all_done && state != service::JobState::kQueued &&
                 state != service::JobState::kRunning;
    }
    if (all_done) break;
  }

  for (service::JobId id : ids) {
    const tuner::TuningResult result = server.wait(id);
    const service::JobProgress p = server.progress(id);
    std::printf("%-6s tuned: %8.1f -> %8.1f MB/s in %u generations "
                "(%.1f simulated s)\n",
                p.name.c_str(), result.initial_perf, result.best_perf,
                result.generations_run, result.total_seconds);
  }

  // A second client re-tunes HACC with the same budget: the shared cache
  // already holds every evaluation its GA will ask for.
  std::printf("\nrepeat client re-tunes hacc (same spec, shared cache):\n");
  service::JobSpec repeat;
  repeat.name = "hacc";
  repeat.objective = kernel_objective(wl::make_hacc({1u << 18}));
  repeat.ga = ga;
  const service::JobId repeat_id = server.submit(repeat);
  const tuner::TuningResult rerun = server.wait(repeat_id);
  const service::JobProgress rp = server.progress(repeat_id);
  std::printf("  same best (%.1f MB/s), %llu cache hits, %llu misses, "
              "simulated cost %.1f s\n",
              rerun.best_perf, static_cast<unsigned long long>(rp.cache_hits),
              static_cast<unsigned long long>(rp.cache_misses),
              rerun.total_seconds);

  const service::TuningServer::ServiceStats stats = server.stats();
  std::printf("\nservice totals: %llu jobs, %llu engine evaluations, "
              "cache hit rate %.0f%% (%.0f simulated s saved)\n",
              static_cast<unsigned long long>(stats.jobs_submitted),
              static_cast<unsigned long long>(stats.engine_evaluations),
              100.0 * stats.cache.hit_rate(), stats.cache.seconds_saved);

  // Checkpoint the accumulated results the way a long-running service
  // would on shutdown (and reload them on the next start).
  const std::string path = "/tmp/tunio_service_cache.json";
  if (server.cache().save_file(path)) {
    service::ResultCache warm;
    warm.load_file(path);
    std::printf("cache checkpointed to %s (%zu entries reloadable)\n",
                path.c_str(), warm.size());
  }

  // Observability wrap-up: dump the recorded trace (openable in
  // chrome://tracing / Perfetto) and the process-wide metric totals.
  const std::string trace_path = "tuning_service_trace.json";
  if (tracer.write_file(trace_path)) {
    std::printf("\ntrace written to %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t collectives =
      metrics.counter("mpi.barriers") + metrics.counter("mpi.allreduces") +
      metrics.counter("mpi.gathers") + metrics.counter("mpi.broadcasts");
  // Every job above runs the GA, so its iterations are the generations.
  std::printf("metrics: %llu PFS reads, %llu PFS writes, %llu MPI "
              "collectives, %llu tuner generations, %llu RL stop decisions\n",
              static_cast<unsigned long long>(metrics.counter("pfs.reads")),
              static_cast<unsigned long long>(metrics.counter("pfs.writes")),
              static_cast<unsigned long long>(collectives),
              static_cast<unsigned long long>(
                  metrics.counter("tuners.ga.iterations")),
              static_cast<unsigned long long>(
                  metrics.counter("rl.early_stop.decisions")));
  std::printf("evaluation fast path: %llu replayed, %llu interpreted\n",
              static_cast<unsigned long long>(
                  metrics.counter("tuner.eval.replayed")),
              static_cast<unsigned long long>(
                  metrics.counter("tuner.eval.interpreted")));
  return 0;
}
