#include "tuners/rule_tuner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tunio::tuners {

namespace {

/// Full sweeps over the priority list before giving up. The search
/// usually converges earlier (a pass without improvement stops it).
constexpr unsigned kMaxPasses = 4;

}  // namespace

RuleTuner::RuleTuner(const cfg::ConfigSpace& space, const TunerSpec& spec)
    : TunerBase("rule", space) {
  const std::size_t dim = space.num_parameters();
  TUNIO_CHECK_MSG(spec.impact.empty() || spec.impact.size() == dim,
                  "impact vector arity mismatch");

  if (spec.seed_indices.has_value()) {
    TUNIO_CHECK_MSG(spec.seed_indices->size() == dim,
                    "seed configuration arity mismatch");
    current_ = *spec.seed_indices;
  } else {
    current_ = space.default_configuration().indices();
  }

  // Priority = impact * (1 + hint weight); unknown hint names are
  // ignored so lint output for a different stack degrades gracefully.
  std::vector<double> priority(dim, 1.0);
  if (!spec.impact.empty()) priority = spec.impact;
  for (const auto& [name, weight] : spec.hints) {
    if (space.has(name)) priority[space.index_of(name)] *= 1.0 + weight;
  }
  for (std::size_t p = 0; p < dim; ++p) {
    if (space.parameter(p).domain.size() > 1) order_.push_back(p);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return priority[a] > priority[b];
                   });
}

std::vector<std::vector<std::size_t>> RuleTuner::alternatives(
    std::size_t p) const {
  std::vector<std::vector<std::size_t>> out;
  const std::size_t n = space().parameter(p).domain.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (v == current_[p]) continue;
    std::vector<std::size_t> indices = current_;
    indices[p] = v;
    if (std::find(seen_.begin(), seen_.end(), hash_indices(indices)) ==
        seen_.end()) {
      out.push_back(std::move(indices));
    }
  }
  return out;
}

void RuleTuner::advance() {
  while (true) {
    if (cursor_ >= order_.size()) {
      ++passes_;
      if (!pass_improved_ || passes_ >= kMaxPasses) {
        set_done();
        return;
      }
      cursor_ = 0;
      pass_improved_ = false;
    }
    if (!alternatives(order_[cursor_]).empty()) return;
    ++cursor_;
  }
}

std::vector<cfg::Configuration> RuleTuner::next_batch() {
  std::vector<cfg::Configuration> batch;
  if (iteration() == 0) {
    // Evaluate the starting point alone: it anchors `initial_perf` and
    // every later sweep compares against its adopted descendant.
    seen_.push_back(hash_indices(current_));
    batch.emplace_back(&space(), current_);
    return batch;
  }
  sweep_param_ = order_[cursor_];
  for (std::vector<std::size_t>& indices : alternatives(sweep_param_)) {
    seen_.push_back(hash_indices(indices));
    batch.emplace_back(&space(), std::move(indices));
  }
  return batch;
}

void RuleTuner::absorb(const std::vector<cfg::Configuration>& batch,
                       const std::vector<tuner::Evaluation>& evals) {
  if (iteration() == 0) {
    current_perf_ = evals.empty() ? -1.0 : evals.front().perf_mbps;
    advance();  // finishes immediately when every domain is a singleton
    return;
  }
  std::size_t best = batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (evals[i].perf_mbps > current_perf_ &&
        (best == batch.size() || evals[i].perf_mbps > evals[best].perf_mbps)) {
      best = i;
    }
  }
  if (best != batch.size()) {
    // Strict improvement: adopt and keep sweeping from the new point.
    current_ = batch[best].indices();
    current_perf_ = evals[best].perf_mbps;
    pass_improved_ = true;
  }
  ++cursor_;
  advance();
}

}  // namespace tunio::tuners
