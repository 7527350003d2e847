// Fixed-capacity inline ring buffer — the storage behind the DRAM transit
// pipe — and ring_index, the one ring-index wrap it shares with the FIFO
// commit shape (sim::FifoPointers). Capacity is known at construction, so the backing store is one flat
// allocation made once; push/pop are two or three scalar ops with no
// pointer chasing, unlike the chunked std::deque they replace in the
// simulation hot loop.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace smache::sim {

/// Slot `i` positions past `head` in a ring of `capacity` slots, for
/// head < capacity and i <= capacity. One conditional subtract instead of a
/// divide: head + i < 2 * capacity.
inline std::size_t ring_index(std::size_t head, std::size_t i,
                              std::size_t capacity) noexcept {
  const std::size_t j = head + i;
  return j >= capacity ? j - capacity : j;
}

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    SMACHE_REQUIRE(capacity >= 1);
  }

  std::size_t capacity() const noexcept { return buf_.size(); }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == buf_.size(); }

  const T& front() const {
    SMACHE_REQUIRE(size_ > 0);
    return buf_[head_];
  }

  void push_back(const T& v) {
    SMACHE_REQUIRE(size_ < buf_.size());
    buf_[ring_index(head_, size_, buf_.size())] = v;
    ++size_;
  }

  void pop_front() {
    SMACHE_REQUIRE(size_ > 0);
    head_ = ring_index(head_, 1, buf_.size());
    --size_;
  }

  /// Element `i` positions behind the front (i == 0 is the front).
  const T& at(std::size_t i) const {
    SMACHE_REQUIRE(i < size_);
    return buf_[ring_index(head_, i, buf_.size())];
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace smache::sim
