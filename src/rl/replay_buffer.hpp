// Fixed-capacity experience replay.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace tunio::rl {

struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool terminal = false;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
    TUNIO_CHECK_MSG(capacity_ > 0, "replay buffer needs capacity");
  }

  void push(Transition transition) {
    if (buffer_.size() < capacity_) {
      buffer_.push_back(std::move(transition));
    } else {
      buffer_[cursor_] = std::move(transition);
    }
    cursor_ = (cursor_ + 1) % capacity_;
  }

  std::size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }

  /// One uniform draw; a batch is drawn with replacement by repeating it.
  const Transition& sample(Rng& rng) const {
    TUNIO_CHECK_MSG(!buffer_.empty(), "sampling empty replay buffer");
    return buffer_[rng.index(buffer_.size())];
  }

 private:
  std::size_t capacity_;
  std::size_t cursor_ = 0;
  std::vector<Transition> buffer_;
};

}  // namespace tunio::rl
