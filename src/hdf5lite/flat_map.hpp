// An open-addressed hash map: the page index of hdf5lite's chunk table.
//
// Keys and values sit inline in one power-of-two array (linear probing,
// load at most 1/2), so an insert allocates only when the table doubles.
// Nothing is ever removed: the table grows with the number of keys and
// never shrinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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
  const Value* find(const Key& key) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key); slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
    }
    return nullptr;
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

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(Hash()(key)) & (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

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
