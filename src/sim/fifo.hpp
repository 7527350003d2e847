// Clocked FIFO channel — the only way modules communicate in this substrate.
//
// Semantics (all hardware-like):
//   * at most one push and one pop per cycle (one write port, one read port);
//   * a value pushed at cycle t becomes poppable at cycle t+1;
//   * can_push() is based on committed occupancy plus this cycle's pending
//     push, NOT on this cycle's pop — like a FIFO whose `full` flag is
//     registered. This makes producer/consumer evaluation order irrelevant;
//   * capacity must be >= 1.
//
// Storage is a fixed-capacity ring of slots: the depth is known at
// construction, exactly like the synthesised FIFO, so occupancy changes are
// pointer arithmetic on one flat allocation — no per-push heap traffic in
// the cycle hot loop. The head/occupancy pointers, the pending flags and
// the clock-edge commit are the FIFO commit shape (sim::FifoPointers).
//
// Resource accounting: FIFOs charge `capacity * bits_each` register bits
// plus head/tail pointers. Design-level FIFOs that should synthesise into
// BRAM use mem::BramBank-based structures instead; this class models the
// small register-based skid/channel FIFOs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "sim/clocked.hpp"
#include "sim/simulator.hpp"
#include "sim/reg.hpp"

namespace smache::sim {

template <typename T>
class Fifo : public FifoPointers {
 public:
  Fifo(Simulator& sim, std::string_view path, std::size_t capacity,
       std::uint32_t bits_each = default_bits<T>())
      : FifoPointers(capacity), slots_(capacity) {
    SMACHE_REQUIRE(capacity >= 1);
    sim.register_clocked(this);
    const std::uint64_t ptr_bits = 2ull * (addr_bits(capacity) + 1);
    sim.ledger().add(path, ResKind::RegisterBits,
                     static_cast<std::uint64_t>(capacity) * bits_each +
                         ptr_bits);
    mreg_ = &sim.metrics();
    hwm_slot_ = mreg_->slot(path, "/hwm", obs::MetricKind::MaxWatermark);
  }

  /// Register the module that consumes this channel: a committed push
  /// wakes it on exactly the cycle boundary where the data becomes
  /// poppable. Commit-time (not schedule-time) firing is what makes the
  /// sleep protocol race-free: a consumer that checks can_pop(), sees
  /// nothing, and sleeps in the same cycle a producer pushes is still
  /// woken — by the commit that publishes the value.
  void set_consumer(Module* m) noexcept { consumer_ = m; }
  /// Register the module that produces into this channel: a committed pop
  /// wakes it when the freed slot becomes pushable (back-pressure relief).
  void set_producer(Module* m) noexcept { producer_ = m; }

  std::size_t capacity() const noexcept { return capacity_; }
  /// Committed occupancy (start-of-cycle view).
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// True iff a push this cycle is accepted. Ignores this cycle's pop by
  /// design (registered-full semantics).
  bool can_push() const noexcept {
    return !push_pending_ && size_ < capacity_;
  }

  /// Schedule a push; the value is visible to the consumer next cycle.
  /// The value is staged directly in its final ring slot (readers only see
  /// committed occupancy, and the slot index survives a same-cycle pop), so
  /// the commit publishes it without a second copy.
  void push(const T& v) { push_slot() = v; }

  /// Zero-copy variant of push() for wide messages: schedules the push and
  /// returns the staging slot for the producer to fill in place before the
  /// end of its eval. The slot holds stale bytes from an earlier occupant —
  /// the producer owns writing every field the consumer will read.
  T& push_slot() {
    SMACHE_REQUIRE_MSG(can_push(), "fifo overflow or double push in a cycle");
    push_pending_ = true;
    mark_dirty();
    // Occupancy high-water mark (<path>/hwm): committed size plus the push
    // being scheduled. The occupancy math stays behind the enabled check
    // so the disabled path is one branch, not a computation.
    if (mreg_->enabled())
      mreg_->watermark(hwm_slot_, static_cast<std::uint64_t>(size_) + 1);
    return slots_[slot(size_)];
  }

  /// True iff a pop this cycle would return data.
  bool can_pop() const noexcept { return !pop_pending_ && size_ != 0; }

  /// Committed front element; valid only when can_pop().
  const T& front() const {
    SMACHE_REQUIRE(size_ != 0);
    return slots_[head_];
  }

  /// Schedule a pop of the front element and return it.
  T pop() {
    SMACHE_REQUIRE_MSG(can_pop(), "fifo underflow or double pop in a cycle");
    pop_pending_ = true;
    mark_dirty();
    return slots_[head_];
  }

  /// Zero-copy variant of pop() for wide messages: schedules the pop
  /// without returning the element. Pair with front(), whose reference
  /// stays valid until the commit phase.
  void drop() {
    SMACHE_REQUIRE_MSG(can_pop(), "fifo underflow or double pop in a cycle");
    pop_pending_ = true;
    mark_dirty();
  }

 private:
  std::vector<T> slots_;
  obs::MetricsRegistry* mreg_ = nullptr;  // owned by the Simulator
  obs::MetricsRegistry::Slot hwm_slot_ = 0;
};

}  // namespace smache::sim
