// Tests for the neural-network module: dense nets (function
// approximation, bit-for-bit against a reference, allocation-free
// training), PCA.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/dense_net.hpp"
#include "nn/pca.hpp"
#include "rl/q_agent.hpp"

// Every global allocation in this test binary goes through these, so a
// test can count the allocations a call makes. The whole family is
// replaced so that every pointer is freed by the allocator that made it.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  void* p = counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tunio::nn {
namespace {

/// Counts the global allocations made while it is alive.
class AllocationCount {
 public:
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::size_t start_ = g_allocations.load(std::memory_order_relaxed);
};

// ---------------------------------------------------------------------
// The reference: DenseNet as it was before its training path was made
// allocation-free, with the matrix type it was built on. The
// differential test below trains it in lockstep with nn::DenseNet.

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// y = A * x (x.size() == cols).
  std::vector<double> multiply(const std::vector<double>& x) const {
    TUNIO_CHECK_MSG(x.size() == cols_, "matrix-vector size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double sum = 0.0;
      const double* row = data_.data() + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
      y[r] = sum;
    }
    return y;
  }

  /// y = A^T * x (x.size() == rows).
  std::vector<double> multiply_transposed(const std::vector<double>& x) const {
    TUNIO_CHECK_MSG(x.size() == rows_, "matrix^T-vector size mismatch");
    std::vector<double> y(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* row = data_.data() + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * x[r];
    }
    return y;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Moments the reference has flushed, to show the differential test
/// reaches the flush.
std::size_t g_reference_flushes = 0;

void flush_subnormal(double& moment) {
  if (std::fabs(moment) < DBL_MIN) {
    if (moment != 0.0) ++g_reference_flushes;
    moment = 0.0;
  }
}

class ReferenceNet {
 public:
  ReferenceNet(std::vector<std::size_t> layer_sizes, Rng& rng,
               AdamParams adam)
      : layer_sizes_(std::move(layer_sizes)), adam_(adam) {
    for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
      const std::size_t in = layer_sizes_[l];
      const std::size_t out = layer_sizes_[l + 1];
      Layer layer;
      layer.weights = Matrix(out, in);
      const double scale = std::sqrt(2.0 / static_cast<double>(in));
      for (double& w : layer.weights.data()) {
        w = std::normal_distribution<double>(0.0, scale)(rng.engine());
      }
      layer.bias.assign(out, 0.0);
      layer.m_w = Matrix(out, in);
      layer.v_w = Matrix(out, in);
      layer.m_b.assign(out, 0.0);
      layer.v_b.assign(out, 0.0);
      layers_.push_back(std::move(layer));
    }
  }

  std::vector<double> forward_with_embedding(
      const std::vector<double>& input, std::vector<double>* embedding) {
    std::vector<double> out = forward_cached(input);
    *embedding = activations_[activations_.size() - 2];
    return out;
  }

  double train(const std::vector<double>& input,
               const std::vector<double>& target) {
    const std::vector<double> out = forward_cached(input);
    std::vector<double> error(out.size());
    double mse = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double diff = out[i] - target[i];
      error[i] = 2.0 * diff / static_cast<double>(out.size());
      mse += diff * diff;
    }
    mse /= static_cast<double>(out.size());
    backward(error);
    return mse;
  }

  double train_output(const std::vector<double>& input,
                      std::size_t output_index, double target) {
    const std::vector<double> out = forward_cached(input);
    std::vector<double> error(out.size(), 0.0);
    const double diff = out[output_index] - target;
    error[output_index] = 2.0 * diff;
    backward(error);
    return diff * diff;
  }

  double train_epoch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets) {
    double total = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      total += train(inputs[i], targets[i]);
    }
    return total / static_cast<double>(inputs.size());
  }

  void soft_update_from(const ReferenceNet& other, double tau) {
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

  void copy_from(const ReferenceNet& other) { soft_update_from(other, 1.0); }

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
    Matrix weights;
    std::vector<double> bias;
    Matrix m_w, v_w;
    std::vector<double> m_b, v_b;
  };

  std::vector<double> forward_cached(const std::vector<double>& input) {
    activations_.clear();
    activations_.push_back(input);
    std::vector<double> current = input;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      std::vector<double> z = layers_[l].weights.multiply(current);
      for (std::size_t i = 0; i < z.size(); ++i) z[i] += layers_[l].bias[i];
      if (l + 1 < layers_.size()) {
        for (double& v : z) v = std::max(0.0, v);
      }
      activations_.push_back(z);
      current = std::move(z);
    }
    return current;
  }

  void backward(const std::vector<double>& out_error) {
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
      if (l + 1 < layers_.size()) {
        const std::vector<double>& a_out = activations_[l + 1];
        for (std::size_t i = 0; i < delta.size(); ++i) {
          if (a_out[i] <= 0.0) delta[i] = 0.0;
        }
      }
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
        layer.bias[o] -=
            lr * (mb / bc1) / (std::sqrt(vb / bc2) + adam_.epsilon);
      }
      if (l > 0) {
        delta = layer.weights.multiply_transposed(delta);
      }
    }
  }

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  AdamParams adam_;
  std::uint64_t step_ = 0;
  std::vector<std::vector<double>> activations_;
};

TEST(Matrix, MultiplyAndTranspose) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  const auto y = m.multiply({1.0, 1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto yt = m.multiply_transposed({1.0, 1.0});
  ASSERT_EQ(yt.size(), 3u);
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 7.0);
  EXPECT_DOUBLE_EQ(yt[2], 9.0);
  EXPECT_THROW(m.multiply({1.0}), Error);
  EXPECT_THROW(m.multiply_transposed({1.0, 2.0, 3.0}), Error);
}

template <class Net>
std::vector<std::uint64_t> state_bits(const Net& net) {
  std::vector<std::uint64_t> bits;
  net.visit_state(
      [&](double value) { bits.push_back(std::bit_cast<std::uint64_t>(value)); });
  return bits;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double value : values) bits.push_back(std::bit_cast<std::uint64_t>(value));
  return bits;
}

std::vector<double> random_vector(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.5, 1.5);
  return v;
}

struct DifferentialCase {
  std::vector<std::size_t> shape;
  AdamParams adam;
};

// Trains nn::DenseNet and the reference in lockstep through every
// training and copy entry point, and requires every weight, bias, Adam
// moment, output and embedding to be equal bit for bit after each step.
// The second net of each pair is a target net for the soft and hard
// copies. β1 = 0.5, β2 = 0.6 on one shape lets moments of rows that get
// no gradient reach the subnormal flush within the run.
TEST(DenseNetDifferential, MatchesReferenceNet) {
  const std::vector<DifferentialCase> cases{
      {{1, 1}, {1e-2}},
      {{3, 7, 2}, {5e-3}},
      {{5, 24, 24, 2}, {2e-2, 0.5, 0.6, 1e-8}},
      {{14, 16, 8, 1}, {2e-3}},
  };
  const int kSteps = 2000;
  g_reference_flushes = 0;
  std::uint64_t seed = 100;
  for (const DifferentialCase& c : cases) {
    SCOPED_TRACE(::testing::Message() << "shape of " << c.shape.size()
                                      << " layers, input " << c.shape[0]);
    ++seed;
    Rng init(seed);
    Rng ref_init(seed);
    DenseNet net(c.shape, init, c.adam);
    DenseNet target(c.shape, init, c.adam);
    ReferenceNet ref(c.shape, ref_init, c.adam);
    ReferenceNet ref_target(c.shape, ref_init, c.adam);
    const std::size_t in = c.shape.front();
    const std::size_t out = c.shape.back();

    Rng ops(seed * 7919);
    for (int step = 0; step < kSteps; ++step) {
      const double pick = ops.uniform();
      const std::vector<double> input = random_vector(ops, in);
      if (pick < 0.4) {
        const std::vector<double> y = random_vector(ops, out);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(net.train(input, y)),
                  std::bit_cast<std::uint64_t>(ref.train(input, y)))
            << "train, step " << step;
      } else if (pick < 0.75) {
        // Mostly head 0, so the other heads' rows get long runs with no
        // gradient.
        const std::size_t head = ops.chance(0.9) ? 0 : ops.index(out);
        const double y = ops.uniform(-1.0, 1.0);
        ASSERT_EQ(
            std::bit_cast<std::uint64_t>(net.train_output(input, head, y)),
            std::bit_cast<std::uint64_t>(ref.train_output(input, head, y)))
            << "train_output, step " << step;
      } else if (pick < 0.85) {
        std::vector<std::vector<double>> xs, ys;
        for (int i = 0; i < 3; ++i) {
          xs.push_back(random_vector(ops, in));
          ys.push_back(random_vector(ops, out));
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(net.train_epoch(xs, ys)),
                  std::bit_cast<std::uint64_t>(ref.train_epoch(xs, ys)))
            << "train_epoch, step " << step;
      } else if (pick < 0.95) {
        const double tau = ops.uniform(0.0, 0.2);
        target.soft_update_from(net, tau);
        ref_target.soft_update_from(ref, tau);
        if (ops.chance(0.3)) {
          // Train the target too, so both directions of the copy carry
          // state the other net does not have.
          const std::vector<double> y = random_vector(ops, out);
          target.train(input, y);
          ref_target.train(input, y);
          net.soft_update_from(target, tau);
          ref.soft_update_from(ref_target, tau);
        }
      } else {
        target.copy_from(net);
        ref_target.copy_from(ref);
      }

      ASSERT_EQ(state_bits(net), state_bits(ref)) << "step " << step;
      ASSERT_EQ(state_bits(target), state_bits(ref_target)) << "step " << step;
      const std::vector<double> probe = random_vector(ops, in);
      std::vector<double> embedding, ref_embedding;
      const std::vector<double> y =
          net.forward_with_embedding(probe, &embedding);
      ASSERT_EQ(bits_of(y),
                bits_of(ref.forward_with_embedding(probe, &ref_embedding)))
          << "step " << step;
      ASSERT_EQ(bits_of(embedding), bits_of(ref_embedding)) << "step " << step;
      ASSERT_EQ(bits_of(net.forward(probe)), bits_of(y)) << "step " << step;
    }
  }
  EXPECT_GT(g_reference_flushes, 0u);
}

// After one warm-up call, a training step and a Q-learning step do all
// their work in buffers the nets already own.
TEST(DenseNetAllocations, TrainingStepsAllocateNothing) {
  Rng rng(1);
  DenseNet net({5, 24, 24, 2}, rng);
  const std::vector<double> input{0.1, -0.4, 0.9, 0.0, 0.3};
  const std::vector<double> target{0.5, -0.25};
  net.train(input, target);
  net.train_output(input, 1, 0.75);
  {
    const AllocationCount allocations;
    net.train(input, target);
    net.train_output(input, 1, 0.75);
    net.forward(input);
    const std::size_t count = allocations.count();
    EXPECT_EQ(count, 0u);
  }

  rl::QAgent agent(5, 2, Rng(2));
  Rng data(3);
  for (int i = 0; i < 64; ++i) {
    agent.observe({data.uniform(), data.uniform(), 0, 0, 0}, data.index(2),
                  data.uniform(), {0, 0, 0, 0, 0}, i % 7 == 0);
  }
  agent.learn(1);
  {
    const AllocationCount allocations;
    agent.learn(1);
    const std::size_t best = agent.best_action(input);
    const std::size_t count = allocations.count();
    EXPECT_EQ(count, 0u);
    EXPECT_LT(best, 2u);
  }
}

TEST(DenseNet, ShapeValidation) {
  Rng rng(1);
  EXPECT_THROW(DenseNet({4}, rng), Error);
  DenseNet net({4, 8, 2}, rng);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_THROW(net.forward({1.0, 2.0}), Error);
  EXPECT_THROW(net.train({1, 2, 3, 4}, {1.0}), Error);
}

TEST(DenseNet, LearnsLinearFunction) {
  Rng rng(7);
  DenseNet net({2, 16, 1}, rng, {5e-3});
  Rng data(11);
  double final_mse = 1e9;
  for (int epoch = 0; epoch < 400; ++epoch) {
    double mse = 0.0;
    for (int i = 0; i < 16; ++i) {
      const double a = data.uniform(-1, 1);
      const double b = data.uniform(-1, 1);
      mse += net.train({a, b}, {0.5 * a - 0.25 * b + 0.1});
    }
    final_mse = mse / 16;
  }
  EXPECT_LT(final_mse, 1e-3);
  const double pred = net.forward({0.5, -0.5})[0];
  EXPECT_NEAR(pred, 0.5 * 0.5 + 0.25 * 0.5 + 0.1, 0.05);
}

TEST(DenseNet, LearnsXor) {
  Rng rng(3);
  DenseNet net({2, 12, 12, 1}, rng, {8e-3});
  const std::vector<std::vector<double>> xs{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::vector<double>> ys{{0}, {1}, {1}, {0}};
  double mse = 1e9;
  for (int epoch = 0; epoch < 1200; ++epoch) {
    mse = net.train_epoch(xs, ys);
  }
  EXPECT_LT(mse, 0.02);
  EXPECT_LT(net.forward({0, 0})[0], 0.3);
  EXPECT_GT(net.forward({0, 1})[0], 0.7);
  EXPECT_GT(net.forward({1, 0})[0], 0.7);
  EXPECT_LT(net.forward({1, 1})[0], 0.3);
}

TEST(DenseNet, TrainOutputUpdatesSingleHead) {
  Rng rng(5);
  DenseNet net({2, 8, 3}, rng, {1e-2});
  for (int i = 0; i < 500; ++i) {
    net.train_output({1.0, 0.0}, 1, 0.75);
  }
  EXPECT_NEAR(net.forward({1.0, 0.0})[1], 0.75, 0.05);
}

TEST(DenseNet, EmbeddingHasHiddenWidth) {
  Rng rng(9);
  DenseNet net({4, 10, 6, 2}, rng);
  std::vector<double> embedding;
  net.forward_with_embedding({1, 2, 3, 4}, &embedding);
  EXPECT_EQ(embedding.size(), 6u);
  // ReLU hidden activations are non-negative.
  for (double v : embedding) EXPECT_GE(v, 0.0);
}

TEST(DenseNet, SoftUpdateMovesTowardSource) {
  // A single-layer net is linear in its parameters, so averaging the
  // weights exactly averages the outputs (with ReLU stacks it need not).
  Rng rng(13);
  DenseNet a({2, 1}, rng);
  DenseNet b({2, 1}, rng);
  const double before = std::abs(a.forward({1, 1})[0] - b.forward({1, 1})[0]);
  a.soft_update_from(b, 0.5);
  const double after = std::abs(a.forward({1, 1})[0] - b.forward({1, 1})[0]);
  EXPECT_NEAR(after, before / 2.0, 1e-9);
  a.copy_from(b);
  EXPECT_NEAR(a.forward({1, 1})[0], b.forward({1, 1})[0], 1e-12);
  // Mismatched architectures are rejected.
  DenseNet c({3, 1}, rng);
  EXPECT_THROW(a.soft_update_from(c, 0.5), Error);
}

TEST(Pca, RecoversDominantDirection) {
  // Points along y = 2x with small noise: the first component should be
  // ~(1, 2)/sqrt(5).
  Rng rng(21);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 400; ++i) {
    const double t = rng.uniform(-1, 1);
    samples.push_back({t + rng.normal(0, 0.01), 2 * t + rng.normal(0, 0.01)});
  }
  const PcaResult pca = pca_fit(samples);
  ASSERT_EQ(pca.components.size(), 2u);
  EXPECT_GT(pca.eigenvalues[0], pca.eigenvalues[1] * 50);
  const auto& c = pca.components[0];
  const double ratio = std::abs(c[1] / c[0]);
  EXPECT_NEAR(ratio, 2.0, 0.05);
  // Components are unit length.
  EXPECT_NEAR(c[0] * c[0] + c[1] * c[1], 1.0, 1e-6);
}

TEST(Pca, EigenvaluesSortedDescending) {
  Rng rng(22);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({rng.normal(0, 3.0), rng.normal(0, 1.0),
                       rng.normal(0, 0.1)});
  }
  const PcaResult pca = pca_fit(samples);
  for (std::size_t k = 1; k < pca.eigenvalues.size(); ++k) {
    EXPECT_GE(pca.eigenvalues[k - 1], pca.eigenvalues[k]);
  }
  // Variances roughly match the generating stddevs squared.
  EXPECT_NEAR(pca.eigenvalues[0], 9.0, 2.5);
  EXPECT_NEAR(pca.eigenvalues[1], 1.0, 0.5);
}

TEST(Pca, ImportanceHighlightsVaryingDimension) {
  Rng rng(23);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({rng.normal(0, 5.0), rng.normal(0, 0.1)});
  }
  const auto importance = pca_importance(pca_fit(samples));
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(Pca, RejectsDegenerateInput) {
  EXPECT_THROW(pca_fit({}), Error);
  EXPECT_THROW(pca_fit({{1.0, 2.0}, {1.0}}), Error);
}

TEST(Pca, ConstantDataHasZeroEigenvalues) {
  std::vector<std::vector<double>> samples(10, {3.0, 3.0});
  const PcaResult pca = pca_fit(samples);
  for (double ev : pca.eigenvalues) EXPECT_NEAR(ev, 0.0, 1e-12);
}

}  // namespace
}  // namespace tunio::nn
