// A small fully connected network with ReLU hidden layers, linear output,
// MSE loss and Adam — the C++ stand-in for the paper's Keras models.
//
// Supports everything the TunIO agents need: forward evaluation, a view
// of the last hidden activation (the Smart Configuration Generation
// "state observation"), single-sample and mini-batch SGD/Adam training,
// and soft parameter copies (target networks for Q-learning).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

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

  /// Forward pass.
  std::vector<double> forward(const std::vector<double>& input) const;

  /// Forward pass that also returns the last hidden layer's activation
  /// (the embedding used as RL "state observation").
  std::vector<double> forward_with_embedding(
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
           {&layer.weights.data(), &layer.bias, &layer.m_w.data(),
            &layer.v_w.data(), &layer.m_b, &layer.v_b}) {
        for (double value : *values) visit(value);
      }
    }
  }

 private:
  struct Layer {
    Matrix weights;  ///< out × in
    std::vector<double> bias;
    // Adam state
    Matrix m_w, v_w;
    std::vector<double> m_b, v_b;
  };

  /// Backprop for one sample given an output-error vector dL/dy.
  void backward(const std::vector<double>& input,
                const std::vector<double>& out_error);

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  AdamParams adam_;
  std::uint64_t step_ = 0;

  // scratch from the last forward_cached call
  mutable std::vector<std::vector<double>> activations_;
  std::vector<double> forward_cached(const std::vector<double>& input) const;
};

}  // namespace tunio::nn
