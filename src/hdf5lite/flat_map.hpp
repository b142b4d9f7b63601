// An open-addressed hash map for hdf5lite's per-chunk state.
//
// The chunk cache and the chunk index see one lookup per chunk touch, and
// a FLASH evaluation touches tens of thousands of chunks. Node-based maps
// pay an allocation per insert there; this table keeps keys and values
// inline in one power-of-two array (linear probing, load at most 1/2,
// backward-shift erase, so no tombstones). It grows with the number of
// keys held at once and never shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace tunio::h5 {

/// splitmix64's finalizer: every input bit reaches every output bit, so
/// the low bits a power-of-two mask keeps depend on the whole key.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Mix64Hash {
  std::uint64_t operator()(std::uint64_t key) const { return mix64(key); }
};

template <class Key, class Value, class Hash = Mix64Hash>
class FlatMap {
 public:
  /// Sizes the table for `count` keys without growing on the way there.
  void reserve(std::size_t count) {
    std::size_t capacity = 16;
    while (capacity < 2 * count) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

  const Value* find(const Key& key) const {
    const std::size_t i = locate(key);
    return i == kMissing ? nullptr : &slots_[i].value;
  }

  /// Inserts `key` -> `value` unless `key` is present; returns the key's
  /// value and whether it was inserted. One probe either way.
  std::pair<Value*, bool> try_emplace(const Key& key, Value value) {
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    std::size_t i = home(key);
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i] = Slot{key, value, true};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes a key that is present.
  void erase(const Key& key) {
    std::size_t hole = locate(key);
    TUNIO_CHECK_MSG(hole != kMissing, "FlatMap: erasing a missing key");
    // Pull back every later entry of the run whose probe path crosses the
    // hole, so lookups never stop early at it.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = next(hole); slots_[i].used; i = next(i)) {
      if (((i - home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

 private:
  static constexpr std::size_t kMissing = ~std::size_t{0};

  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(Hash()(key)) & (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Slot index of `key`, or kMissing.
  std::size_t locate(const Key& key) const {
    if (size_ == 0) return kMissing;
    for (std::size_t i = home(key);; i = next(i)) {
      if (!slots_[i].used) return kMissing;
      if (slots_[i].key == key) return i;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) try_emplace(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace tunio::h5
