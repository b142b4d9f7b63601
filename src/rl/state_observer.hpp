// The State Observer of Smart Configuration Generation.
//
// "The observer uses the inputs provided to the RL agent to produce a
// state observation which represents a relationship between the
// application and the tuning environment" (§III-C). It is an NN-based
// contextual bandit: the network learns to predict normalized perf from
// the raw tuning context (parameter-subset membership vector, last
// normalized perf, iteration progress); its last hidden activation is
// the state observation handed to the Subset Picker.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/dense_net.hpp"

namespace tunio::rl {

class StateObserver {
 public:
  /// `context_dim` = raw input width; `embedding_dim` = observation width.
  StateObserver(std::size_t context_dim, std::size_t embedding_dim, Rng rng);

  std::size_t embedding_dim() const { return embedding_dim_; }

  /// Produces the state observation for a raw context.
  std::vector<double> observe(const std::vector<double>& context) const;

  /// Bandit update: the context led to `normalized_perf`.
  void update(const std::vector<double>& context, double normalized_perf);

  /// Predicted normalized perf for a context (the bandit's value).
  double predict(const std::vector<double>& context) const;

  const nn::DenseNet& network() const { return net_; }

 private:
  std::size_t embedding_dim_;
  Rng rng_;
  nn::DenseNet net_;
};

}  // namespace tunio::rl
