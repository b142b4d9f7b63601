// A small fully connected network with ReLU hidden layers, linear output,
// MSE loss and Adam — the C++ stand-in for the paper's Keras models.
//
// Supports everything the TunIO agents need: forward evaluation, a view
// of the last hidden activation (the Smart Configuration Generation
// "state observation"), single-sample and mini-batch SGD/Adam training,
// and soft parameter copies (target networks for Q-learning).
//
// The agents train these nets offline before every tuning job, one
// sample at a time, so a training step allocates nothing: activations,
// the output error and the back-propagated deltas live in buffers sized
// once at construction. The same buffers make a net unsafe to use from
// two threads at once, even through its const methods.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace tunio::nn {

struct AdamParams {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class DenseNet {
 public:
  /// `layer_sizes` = {input, hidden..., output}; at least {in, out}.
  DenseNet(std::vector<std::size_t> layer_sizes, Rng& rng,
           AdamParams adam = {});

  std::size_t input_size() const { return layer_sizes_.front(); }
  std::size_t output_size() const { return layer_sizes_.back(); }

  /// Forward pass. The result is a view of the net's output buffer: it
  /// holds until the next call that runs this net (forward, train, ...).
  const std::vector<double>& forward(const std::vector<double>& input) const;

  /// Forward pass that also returns the last hidden layer's activation
  /// (the embedding used as RL "state observation"). Same view as
  /// `forward`.
  const std::vector<double>& forward_with_embedding(
      const std::vector<double>& input, std::vector<double>* embedding) const;

  /// One Adam step on a single (input, target) pair; returns the MSE.
  double train(const std::vector<double>& input,
               const std::vector<double>& target);

  /// One Adam step on a single sample where only `output_index`'s error
  /// is propagated (Q-learning updates one action's value).
  double train_output(const std::vector<double>& input,
                      std::size_t output_index, double target);

  /// Mini-batch training epoch over all samples; returns the mean MSE.
  double train_epoch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets);

  /// θ ← τ·other + (1−τ)·θ (target-network soft update).
  void soft_update_from(const DenseNet& other, double tau);

  /// Hard parameter copy.
  void copy_from(const DenseNet& other);

  /// Calls `visit(value)` on every weight, bias and Adam moment, layer by
  /// layer: the whole trained state, for fingerprints and numeric checks.
  template <class Visit>
  void visit_state(Visit&& visit) const {
    for (const Layer& layer : layers_) {
      for (const std::vector<double>* values :
           {&layer.weights, &layer.bias, &layer.m_w, &layer.v_w, &layer.m_b,
            &layer.v_b}) {
        for (double value : *values) visit(value);
      }
    }
  }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> weights;  ///< out × in, row-major
    std::vector<double> bias;
    // Adam state, shaped like the parameters.
    std::vector<double> m_w, v_w;
    std::vector<double> m_b, v_b;
  };

  /// Adam step for one sample, from the output error dL/dy in the first
  /// `output_size()` entries of `delta_` and the activations of the last
  /// `forward(input)`.
  void backward(const std::vector<double>& input);

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  AdamParams adam_;
  std::uint64_t step_ = 0;

  // Scratch, sized at construction. activations_[l] is layer l's output;
  // delta_ and delta_next_ hold a layer's error and the one it propagates.
  mutable std::vector<std::vector<double>> activations_;
  std::vector<double> delta_, delta_next_;
};

}  // namespace tunio::nn
