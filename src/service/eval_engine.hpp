// The parallel evaluation engine: a fixed-size worker pool that scores a
// batch of configurations concurrently.
//
// Serial evaluation is the scalability ceiling of the genetic pipeline:
// every generation is an embarrassingly parallel batch of independent
// testbed runs, which `Objective::evaluate_batch` walks one by one.
// The engine lifts that: each worker provisions its own simulated
// testbed (objectives create a fresh MpiSim/PfsSimulator per run) and
// every evaluation draws noise from a per-genome RNG stream
// (`derive_stream(seed, hash_indices(genome))`), so a batch's results
// are bit-identical regardless of worker count, scheduling, or
// completion order. Only *wall-clock* time shrinks; the simulated
// budget billed to a tuning run is unchanged.
//
// One engine is shared by all tuning jobs of a service: batches from
// concurrent jobs interleave over the same workers.
//
// An eligible objective's first two evaluations record and verify its
// replay trace (see tuner/objective.hpp). The engine runs them on the
// batch's calling thread, in batch order, before it fans out: which
// configurations run the stack then depends on the batch alone, and no
// worker waits on a record or verify.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "tuner/objective.hpp"

namespace tunio::service {

struct EngineOptions {
  /// Worker threads. 0 = one per hardware thread (at least one).
  unsigned workers = 0;
};

class EvalEngine {
 public:
  explicit EvalEngine(EngineOptions options = {});
  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Evaluates `configs` over the pool; `results[i]` corresponds to
  /// `configs[i]`. Bit-identical to the serial path (see file comment).
  /// The replay bootstrap runs on the calling thread (see file comment);
  /// only the rest count as tasks. Objectives that are not
  /// `concurrent_safe` fall back to their own (serial) `evaluate_batch`.
  /// Safe to call from several threads at once; the calling thread
  /// blocks until its batch completes.
  std::vector<tuner::Evaluation> evaluate_batch(
      tuner::Objective& objective,
      const std::vector<cfg::Configuration>& configs);

  /// Completed single evaluations (across all batches).
  std::uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();
  void post(std::function<void()> task);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> tasks_completed_{0};
};

}  // namespace tunio::service
