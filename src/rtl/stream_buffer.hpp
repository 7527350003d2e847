// The stream (window) buffer with hybrid register/BRAM implementation —
// the paper's §III "Stream Buffers and Hybrid use of registers and BRAM".
//
// Logically this is a delay line of window_len cells; age 1 is the newest
// cell, age window_len the oldest. The hardware plan splits it: positions
// the gather unit must see in the same cycle (the stencil taps, plus the
// entry and exit stages) are registers, and long runs between taps are
// BRAM FIFO segments bounded by in/out stage registers:
//
//   reg(in_stage) -> BRAM circular buffer (bram_len slots) -> reg(out_stage)
//
// with out_stage = in_stage + bram_len + 1. The BRAM pointer discipline
// (one read and one write port per shift, the read issued one shift ahead)
// gives every value a fixed residence of bram_len + 1 shifts between the
// two stages — exactly the delay of the ages it replaces. That split is
// the plan's resource and Verilog view (rtl/verilog_export.cpp emits it,
// and the ledger is charged for it: window registers, per-field FIFO banks
// and pointer registers); it changes no tap value in any cycle.
//
// The simulation therefore runs the delay line the split provably
// implements: one cell-interleaved ring of (window_len + 1) x F words
// behind a single committed base pointer. Age a, field f lives at
// ring[base + (a - 1) * F + f] (wrapped). A shift writes the entering cell
// into the slot of age window_len + 1 — a slot no tap can read — and moves
// the base one cell back at the clock edge, so that slot becomes age 1 and
// every other cell ages by one. One state element per window, whatever the
// plan's segment count or F.
//
// Case-R (RegisterOnly plans) is the same ring with every age a register.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/word.hpp"
#include "model/planner.hpp"
#include "sim/reg.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

class StreamBuffer {
 public:
  /// `fields` widens every window position to an F-word cell; the plan's
  /// geometry stays in cell-unit ages. The ledger is charged for the
  /// plan's register/BRAM split (F parallel field banks per segment).
  StreamBuffer(sim::Simulator& sim, const std::string& path,
               const model::BufferPlan& plan, std::size_t fields = 1);

  std::size_t window_len() const noexcept { return window_len_; }
  std::size_t fields() const noexcept { return fields_; }

  /// Schedule one shift: `in` enters at age 1, every stored element ages by
  /// one. Must be called at most once per cycle. Single-field form.
  void shift(word_t in);

  /// Cell-wide shift: `cell` points at the entering cell's F words.
  void shift_cell(const word_t* cell);

  /// Combinational read of a register-mapped age (taps, stages) — field 0.
  /// Ages inside BRAM segments are not readable — the planner never taps
  /// them.
  word_t tap(std::size_t age) const;

  /// Ring offset of a register-mapped age's cell. Gather units that emit
  /// the same stencil cases millions of times resolve ages to slots ONCE
  /// (per case, at table-build time) and then read via tap_slot().
  std::size_t slot_of_age(std::size_t age) const {
    SMACHE_REQUIRE_MSG(is_reg_age(age),
                       "slot_of_age on a non-register window position");
    return (age - 1) * fields_;
  }

  /// Combinational read by precomputed slot (see slot_of_age): the cell's
  /// F consecutive words, field f at [f].
  const word_t* tap_slot(std::size_t slot) const {
    std::size_t i = base_.q().base + slot;
    if (i >= ring_.size()) i -= ring_.size();
    return ring_.data() + i;
  }

  /// True if `age` is register-mapped (readable via tap()).
  bool is_reg_age(std::size_t age) const {
    return age < is_reg_.size() && is_reg_[age];
  }

 private:
  struct State {
    std::size_t base = 0;  // ring index of age 1's field 0
  };

  std::size_t window_len_;
  std::size_t fields_;
  std::vector<bool> is_reg_;  // age -> register-mapped in the plan
  std::vector<word_t> ring_;
  sim::RegGroup<State> base_;
};

}  // namespace smache::rtl
