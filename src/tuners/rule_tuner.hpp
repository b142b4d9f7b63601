// Deterministic knowledge-driven searcher.
//
// RuleTuner encodes what the static-analysis layer already knows about a
// workload instead of learning it from scratch: parameters implicated by
// `LintReport::tuning_hints()` and ranked high by Smart Configuration
// Generation's impact scores are swept first. The search itself is plain
// prioritized coordinate descent — evaluate every alternative value of
// one parameter per iteration (the whole sweep goes out as one batch, so
// the parallel evaluation engine stays busy), adopt a strict
// improvement, move down the priority list, and stop after a full pass
// without improvement. No randomness anywhere: identical inputs produce
// identical proposals, which makes it the reproducible baseline of the
// tournament.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tuners/tuner_base.hpp"

namespace tunio::tuners {

struct RuleOptions {
  /// (parameter name, weight) pairs, e.g. `LintReport::tuning_hints()`.
  /// Names unknown to the space are ignored.
  std::vector<std::pair<std::string, double>> hints;
  /// Per-parameter impact scores (e.g. `SmartConfigGen::impact_scores`);
  /// empty = uniform. Priority is impact * (1 + hint weight).
  std::vector<double> impact;
  /// Optional starting configuration (domain indices); defaults start.
  std::optional<std::vector<std::size_t>> seed_indices;
};

class RuleTuner final : public TunerBase {
 public:
  RuleTuner(const cfg::ConfigSpace& space, RuleOptions options = {});

  /// The parameter sweep order the options produced (for tests).
  const std::vector<std::size_t>& sweep_order() const { return order_; }

 protected:
  std::vector<cfg::Configuration> next_batch() override;
  void absorb(const std::vector<cfg::Configuration>& batch,
              const std::vector<tuner::Evaluation>& evals) override;

 private:
  /// Unseen single-parameter variants of `current_` at parameter `p`.
  std::vector<std::vector<std::size_t>> alternatives(std::size_t p) const;
  /// Advances cursor/pass state to the next sweepable parameter, or
  /// finishes the search.
  void advance();

  RuleOptions options_;
  std::vector<std::size_t> order_;  ///< params by descending priority
  std::vector<std::size_t> current_;
  double current_perf_ = -1.0;
  std::size_t cursor_ = 0;      ///< position in order_ being swept
  std::size_t sweep_param_ = 0;  ///< param of the in-flight batch
  unsigned passes_ = 0;
  bool pass_improved_ = false;
  std::vector<std::uint64_t> seen_;  ///< genome hashes ever evaluated
};

}  // namespace tunio::tuners
