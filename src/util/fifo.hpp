// First-in first-out queue over one growable ring buffer.
//
// libstdc++'s std::deque allocates its map and a first chunk in its
// constructor (about 530 bytes), so a per-process queue that stays empty
// for most processes — the seen set's eviction orders, the recovery
// history — used to cost every process that much before it saw a single
// event. This queue allocates on its first push (16 slots, so a short
// queue never regrows), grows by doubling, and never shrinks: its
// footprint is the high-water size rounded up to a power of two, and an
// unused queue is three words.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dam::util {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The i-th element counted from the front. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  /// Precondition: !empty().
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Precondition: !empty(). The vacated slot keeps its value until a
  /// later push overwrites it.
  void pop_front() noexcept {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kFirstSlots = 16;  ///< a power of two

  void grow() {
    std::vector<T> next(slots_.empty() ? kFirstSlots : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< power-of-two ring (empty until first push)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dam::util
