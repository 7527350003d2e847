#include "rtl/stream_buffer.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "mem/bram.hpp"

namespace smache::rtl {

StreamBuffer::StreamBuffer(sim::Simulator& sim, const std::string& path,
                           const model::BufferPlan& plan, std::size_t fields)
    : window_len_(plan.window_len()),
      fields_(fields),
      is_reg_(window_len_ + 1, false),
      base_(sim, State{}, {}) {  // charged below as the plan's split
  SMACHE_REQUIRE(fields >= 1 && fields <= kMaxFields);
  for (const std::size_t age : plan.reg_ages()) {
    SMACHE_REQUIRE(age >= 1 && age <= window_len_);
    is_reg_[age] = true;
  }
  SMACHE_REQUIRE(is_reg_age(1));
  // Age window_len + 1 is the write slot of the next shift.
  ring_.assign((window_len_ + 1) * fields_, word_t{0});

  // The plan's hardware, charged as it synthesises: one register per
  // register-mapped field word, then per FIFO segment its per-field banks
  // (field 0 keeps the bare segment path, extra fields get a /f<k> suffix)
  // and the pointer register all field banks share.
  sim.ledger().add(path + "/stream/window_regs", sim::ResKind::RegisterBits,
                   static_cast<std::uint64_t>(plan.reg_ages().size()) *
                       fields_ * kWordBits);
  for (std::size_t s = 0; s < plan.fifo_segments().size(); ++s) {
    const model::FifoSegment& fs = plan.fifo_segments()[s];
    SMACHE_REQUIRE_MSG(fs.bram_len >= 2,
                       "BRAM FIFO segments need >= 2 slots for the pointer "
                       "discipline");
    SMACHE_REQUIRE(is_reg_age(fs.in_stage_age));
    // The residence the ring stands in for: bram_len slots plus the read
    // stage between the two stage registers.
    SMACHE_REQUIRE_MSG(is_reg_age(fs.out_stage_age) &&
                           fs.out_stage_age ==
                               fs.in_stage_age + fs.bram_len + 1,
                       "BRAM FIFO segment " + std::to_string(s) +
                           " does not span bram_len + 1 ages between "
                           "register stages");
    const std::string spath = path + "/stream/fifo" + std::to_string(s);
    for (std::size_t f = 0; f < fields_; ++f)
      mem::BramBank::charge(
          sim.ledger(), f == 0 ? spath : spath + "/f" + std::to_string(f),
          fs.bram_len, kWordBits, mem::BramBank::Mode::Fifo);
    sim.ledger().add(spath + "/ptr", sim::ResKind::RegisterBits,
                     smache::addr_bits(fs.bram_len));
  }

  // Every register past age 1 is fed by the register one age younger or
  // by a segment's BRAM output: BRAM interiors are always bounded by stage
  // registers.
  for (const std::size_t age : plan.reg_ages()) {
    if (age == 1 || is_reg_age(age - 1)) continue;
    const bool from_bram = std::any_of(
        plan.fifo_segments().begin(), plan.fifo_segments().end(),
        [&](const model::FifoSegment& fs) { return fs.out_stage_age == age; });
    SMACHE_REQUIRE_MSG(from_bram, "window layout broken: register at age " +
                                      std::to_string(age) +
                                      " has no register or BRAM feeding it");
  }
}

void StreamBuffer::shift(word_t in) {
  SMACHE_ASSERT(fields_ == 1);
  shift_cell(&in);
}

void StreamBuffer::shift_cell(const word_t* cell) {
  // The cell one ring step behind age 1 holds age window_len + 1: no tap
  // reads it, so writing it now is invisible this cycle, and the base move
  // committed at the edge makes it age 1. The wrap is a compare, not a
  // modulo.
  const std::size_t base = base_.q().base;
  const std::size_t next = (base == 0 ? ring_.size() : base) - fields_;
  std::copy_n(cell, fields_, ring_.data() + next);
  base_.d().base = next;
}

word_t StreamBuffer::tap(std::size_t age) const {
  SMACHE_REQUIRE_MSG(is_reg_age(age),
                     "tap(" + std::to_string(age) +
                         ") is not a register-mapped window position");
  return *tap_slot(slot_of_age(age));
}

}  // namespace smache::rtl
