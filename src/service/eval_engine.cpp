#include "service/eval_engine.hpp"

#include <exception>

#include "obs/metrics.hpp"

namespace tunio::service {

namespace {

// Engine throughput is the service's headline metric, so these publish
// live (per task/batch, not per simulated op — cheap enough).
obs::Counter& engine_tasks_counter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::global().counter("service.engine.tasks");
  return *counter;
}

obs::Counter& engine_batches_counter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::global().counter("service.engine.batches");
  return *counter;
}

}  // namespace

EvalEngine::EvalEngine(EngineOptions options) {
  unsigned workers = options.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

EvalEngine::~EvalEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void EvalEngine::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  work_ready_.notify_one();
}

void EvalEngine::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::vector<tuner::Evaluation> EvalEngine::evaluate_batch(
    tuner::Objective& objective,
    const std::vector<cfg::Configuration>& configs) {
  // Objectives with shared mutable state cannot fan out; their own
  // serial batch path preserves correctness (and the result contract).
  if (!objective.concurrent_safe() || configs.size() <= 1) {
    const std::vector<tuner::Evaluation> results =
        objective.evaluate_batch(configs);
    engine_batches_counter().add(1);
    return results;
  }

  // Replay bootstrap: an eligible objective's first two evaluations
  // record and verify its trace. Running them here, in batch order, fixes
  // which configurations do so and keeps workers from waiting on them.
  std::vector<tuner::Evaluation> results(configs.size());
  std::size_t first_posted = 0;
  if (objective.replay_gate().eligible) {
    while (first_posted < configs.size() && objective.evaluations() < 2) {
      results[first_posted] = objective.evaluate(configs[first_posted]);
      ++first_posted;
    }
  }

  struct BatchState {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining = configs.size() - first_posted;

  for (std::size_t i = first_posted; i < configs.size(); ++i) {
    post([this, &objective, &configs, &results, state, i] {
      std::exception_ptr error;
      try {
        results[i] = objective.evaluate(configs[i]);
      } catch (...) {
        error = std::current_exception();
      }
      // Counted before the batch can complete, so the caller sees it.
      tasks_completed_.fetch_add(1, std::memory_order_relaxed);
      engine_tasks_counter().add(1);
      std::lock_guard<std::mutex> lock(state->mutex);
      if (error && !state->error) state->error = error;
      if (--state->remaining == 0) state->done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->remaining == 0; });
  if (state->error) std::rethrow_exception(state->error);
  engine_batches_counter().add(1);
  return results;
}

}  // namespace tunio::service
