#include "nn/dense_net.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

namespace tunio::nn {

namespace {

/// Zeroes an Adam moment that has decayed below the normal range. Moments
/// behind dead ReLU units shrink geometrically forever, and arithmetic on
/// subnormals is microcode-slow on common CPUs. A moment that small moves
/// no weight of normal size by even one ulp, so every weight and bias
/// stays bit-identical. Done per value rather than by setting the FPU's
/// flush-to-zero mode, which is x86-only and would change the simulator's
/// arithmetic too.
void flush_subnormal(double& moment) {
  if (std::fabs(moment) < DBL_MIN) moment = 0.0;
}

}  // namespace

DenseNet::DenseNet(std::vector<std::size_t> layer_sizes, Rng& rng,
                   AdamParams adam)
    : layer_sizes_(std::move(layer_sizes)), adam_(adam) {
  TUNIO_CHECK_MSG(layer_sizes_.size() >= 2, "network needs >= 2 layers");
  layers_.reserve(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const std::size_t in = layer_sizes_[l];
    const std::size_t out = layer_sizes_[l + 1];
    Layer layer;
    layer.weights = Matrix(out, in);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (double& w : layer.weights.data()) w = rng.normal(0.0, scale);
    layer.bias.assign(out, 0.0);
    layer.m_w = Matrix(out, in);
    layer.v_w = Matrix(out, in);
    layer.m_b.assign(out, 0.0);
    layer.v_b.assign(out, 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::vector<double> DenseNet::forward_cached(
    const std::vector<double>& input) const {
  TUNIO_CHECK_MSG(input.size() == input_size(), "input size mismatch");
  activations_.clear();
  activations_.push_back(input);
  std::vector<double> current = input;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> z = layers_[l].weights.multiply(current);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += layers_[l].bias[i];
    if (l + 1 < layers_.size()) {
      for (double& v : z) v = std::max(0.0, v);  // ReLU hidden
    }
    activations_.push_back(z);
    current = std::move(z);
  }
  return current;
}

std::vector<double> DenseNet::forward(const std::vector<double>& input) const {
  return forward_cached(input);
}

std::vector<double> DenseNet::forward_with_embedding(
    const std::vector<double>& input, std::vector<double>* embedding) const {
  std::vector<double> out = forward_cached(input);
  if (embedding != nullptr && activations_.size() >= 2) {
    *embedding = activations_[activations_.size() - 2];
  }
  return out;
}

void DenseNet::backward(const std::vector<double>& input,
                        const std::vector<double>& out_error) {
  (void)input;  // activations_[0] already holds it
  ++step_;
  const double lr = adam_.learning_rate;
  const double b1 = adam_.beta1;
  const double b2 = adam_.beta2;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(step_));

  std::vector<double> delta = out_error;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const std::vector<double>& a_in = activations_[l];
    // Gradient wrt pre-activation: hidden layers carry the ReLU mask.
    if (l + 1 < layers_.size()) {
      const std::vector<double>& a_out = activations_[l + 1];
      for (std::size_t i = 0; i < delta.size(); ++i) {
        if (a_out[i] <= 0.0) delta[i] = 0.0;
      }
    }
    // Parameter updates (Adam).
    for (std::size_t o = 0; o < layer.weights.rows(); ++o) {
      for (std::size_t i = 0; i < layer.weights.cols(); ++i) {
        const double grad = delta[o] * a_in[i];
        double& m = layer.m_w(o, i);
        double& v = layer.v_w(o, i);
        m = b1 * m + (1.0 - b1) * grad;
        v = b2 * v + (1.0 - b2) * grad * grad;
        flush_subnormal(m);
        flush_subnormal(v);
        layer.weights(o, i) -=
            lr * (m / bc1) / (std::sqrt(v / bc2) + adam_.epsilon);
      }
      double& mb = layer.m_b[o];
      double& vb = layer.v_b[o];
      mb = b1 * mb + (1.0 - b1) * delta[o];
      vb = b2 * vb + (1.0 - b2) * delta[o] * delta[o];
      flush_subnormal(mb);
      flush_subnormal(vb);
      layer.bias[o] -= lr * (mb / bc1) / (std::sqrt(vb / bc2) + adam_.epsilon);
    }
    if (l > 0) {
      delta = layer.weights.multiply_transposed(delta);
    }
  }
}

double DenseNet::train(const std::vector<double>& input,
                       const std::vector<double>& target) {
  TUNIO_CHECK_MSG(target.size() == output_size(), "target size mismatch");
  const std::vector<double> out = forward_cached(input);
  std::vector<double> error(out.size());
  double mse = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double diff = out[i] - target[i];
    error[i] = 2.0 * diff / static_cast<double>(out.size());
    mse += diff * diff;
  }
  mse /= static_cast<double>(out.size());
  backward(input, error);
  return mse;
}

double DenseNet::train_output(const std::vector<double>& input,
                              std::size_t output_index, double target) {
  TUNIO_CHECK_MSG(output_index < output_size(), "output index out of range");
  const std::vector<double> out = forward_cached(input);
  std::vector<double> error(out.size(), 0.0);
  const double diff = out[output_index] - target;
  error[output_index] = 2.0 * diff;
  backward(input, error);
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
    for (std::size_t i = 0; i < mine.weights.data().size(); ++i) {
      mine.weights.data()[i] = tau * theirs.weights.data()[i] +
                               (1.0 - tau) * mine.weights.data()[i];
    }
    for (std::size_t i = 0; i < mine.bias.size(); ++i) {
      mine.bias[i] = tau * theirs.bias[i] + (1.0 - tau) * mine.bias[i];
    }
  }
}

void DenseNet::copy_from(const DenseNet& other) { soft_update_from(other, 1.0); }

}  // namespace tunio::nn
