#include "nn/dense_net.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace tunio::nn {

namespace {

struct AdamStep {
  double lr, b1, b2, c1, c2, bc1, bc2, epsilon;
};

/// Adam update of `n` parameters whose gradients are `scale * g[i]`.
///
/// A moment that decays below the normal range is zeroed. Moments behind
/// dead ReLU units shrink geometrically forever, and arithmetic on
/// subnormals is microcode-slow on common CPUs. A moment that small moves
/// no weight of normal size by even one ulp, so every weight and bias
/// stays bit-identical. Done per value rather than by setting the FPU's
/// flush-to-zero mode, which is x86-only and would change the simulator's
/// arithmetic too. The flush is a select, so the loop vectorises.
void adam_update(double* __restrict w, double* __restrict m,
                 double* __restrict v, const double* __restrict g,
                 double scale, std::size_t n, const AdamStep& s) {
  for (std::size_t i = 0; i < n; ++i) {
    const double grad = scale * g[i];
    double mi = s.b1 * m[i] + s.c1 * grad;
    double vi = s.b2 * v[i] + s.c2 * grad * grad;
    mi = std::fabs(mi) < DBL_MIN ? 0.0 : mi;
    vi = std::fabs(vi) < DBL_MIN ? 0.0 : vi;
    m[i] = mi;
    v[i] = vi;
    w[i] -= s.lr * (mi / s.bc1) / (std::sqrt(vi / s.bc2) + s.epsilon);
  }
}

}  // namespace

DenseNet::DenseNet(std::vector<std::size_t> layer_sizes, Rng& rng,
                   AdamParams adam)
    : layer_sizes_(std::move(layer_sizes)), adam_(adam) {
  TUNIO_CHECK_MSG(layer_sizes_.size() >= 2, "network needs >= 2 layers");
  layers_.reserve(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    Layer layer;
    layer.in = layer_sizes_[l];
    layer.out = layer_sizes_[l + 1];
    layer.weights.resize(layer.out * layer.in);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.weights) w = rng.normal(0.0, scale);
    layer.bias.assign(layer.out, 0.0);
    layer.m_w.assign(layer.weights.size(), 0.0);
    layer.v_w.assign(layer.weights.size(), 0.0);
    layer.m_b.assign(layer.out, 0.0);
    layer.v_b.assign(layer.out, 0.0);
    activations_.emplace_back(layer.out, 0.0);
    layers_.push_back(std::move(layer));
  }
  const std::size_t widest =
      *std::max_element(layer_sizes_.begin(), layer_sizes_.end());
  delta_.assign(widest, 0.0);
  delta_next_.assign(widest, 0.0);
}

const std::vector<double>& DenseNet::forward(
    const std::vector<double>& input) const {
  TUNIO_CHECK_MSG(input.size() == input_size(), "input size mismatch");
  const double* x = input.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool hidden = l + 1 < layers_.size();
    double* y = activations_[l].data();
    for (std::size_t o = 0; o < layer.out; ++o) {
      const double* row = layer.weights.data() + o * layer.in;
      double sum = 0.0;
      for (std::size_t i = 0; i < layer.in; ++i) sum += row[i] * x[i];
      sum += layer.bias[o];
      y[o] = hidden ? std::max(0.0, sum) : sum;  // ReLU hidden
    }
    x = y;
  }
  return activations_.back();
}

const std::vector<double>& DenseNet::forward_with_embedding(
    const std::vector<double>& input, std::vector<double>* embedding) const {
  const std::vector<double>& out = forward(input);
  if (embedding != nullptr) {
    // With no hidden layer the embedding is the input itself.
    *embedding =
        layers_.size() >= 2 ? activations_[activations_.size() - 2] : input;
  }
  return out;
}

void DenseNet::backward(const std::vector<double>& input) {
  ++step_;
  AdamStep s;
  s.lr = adam_.learning_rate;
  s.b1 = adam_.beta1;
  s.b2 = adam_.beta2;
  s.c1 = 1.0 - s.b1;
  s.c2 = 1.0 - s.b2;
  s.bc1 = 1.0 - std::pow(s.b1, static_cast<double>(step_));
  s.bc2 = 1.0 - std::pow(s.b2, static_cast<double>(step_));
  s.epsilon = adam_.epsilon;

  double* delta = delta_.data();
  double* next = delta_next_.data();
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const double* a_in = l > 0 ? activations_[l - 1].data() : input.data();
    // Gradient wrt pre-activation: hidden layers carry the ReLU mask.
    if (l + 1 < layers_.size()) {
      const double* a_out = activations_[l].data();
      for (std::size_t o = 0; o < layer.out; ++o) {
        delta[o] = a_out[o] <= 0.0 ? 0.0 : delta[o];
      }
    }
    for (std::size_t o = 0; o < layer.out; ++o) {
      const std::size_t row = o * layer.in;
      adam_update(layer.weights.data() + row, layer.m_w.data() + row,
                  layer.v_w.data() + row, a_in, delta[o], layer.in, s);
    }
    adam_update(layer.bias.data(), layer.m_b.data(), layer.v_b.data(), delta,
                1.0, layer.out, s);
    // Propagate through the weights just updated.
    if (l > 0) {
      std::fill(next, next + layer.in, 0.0);
      for (std::size_t o = 0; o < layer.out; ++o) {
        const double* row = layer.weights.data() + o * layer.in;
        const double d = delta[o];
        for (std::size_t i = 0; i < layer.in; ++i) next[i] += row[i] * d;
      }
      std::swap(delta, next);
    }
  }
}

double DenseNet::train(const std::vector<double>& input,
                       const std::vector<double>& target) {
  TUNIO_CHECK_MSG(target.size() == output_size(), "target size mismatch");
  const std::vector<double>& out = forward(input);
  const double n = static_cast<double>(out.size());
  double mse = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double diff = out[i] - target[i];
    delta_[i] = 2.0 * diff / n;
    mse += diff * diff;
  }
  mse /= n;
  backward(input);
  return mse;
}

double DenseNet::train_output(const std::vector<double>& input,
                              std::size_t output_index, double target) {
  TUNIO_CHECK_MSG(output_index < output_size(), "output index out of range");
  const std::vector<double>& out = forward(input);
  std::fill(delta_.begin(), delta_.begin() + out.size(), 0.0);
  const double diff = out[output_index] - target;
  delta_[output_index] = 2.0 * diff;
  backward(input);
  return diff * diff;
}

double DenseNet::train_epoch(const std::vector<std::vector<double>>& inputs,
                             const std::vector<std::vector<double>>& targets) {
  TUNIO_CHECK_MSG(inputs.size() == targets.size(), "dataset size mismatch");
  TUNIO_CHECK_MSG(!inputs.empty(), "empty training set");
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    total += train(inputs[i], targets[i]);
  }
  return total / static_cast<double>(inputs.size());
}

void DenseNet::soft_update_from(const DenseNet& other, double tau) {
  TUNIO_CHECK_MSG(layer_sizes_ == other.layer_sizes_,
                  "soft update across mismatched architectures");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto& mine = layers_[l];
    const auto& theirs = other.layers_[l];
    for (std::size_t i = 0; i < mine.weights.size(); ++i) {
      mine.weights[i] = tau * theirs.weights[i] + (1.0 - tau) * mine.weights[i];
    }
    for (std::size_t i = 0; i < mine.bias.size(); ++i) {
      mine.bias[i] = tau * theirs.bias[i] + (1.0 - tau) * mine.bias[i];
    }
  }
}

void DenseNet::copy_from(const DenseNet& other) { soft_update_from(other, 1.0); }

}  // namespace tunio::nn
