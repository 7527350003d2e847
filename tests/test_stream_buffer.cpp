// Unit tests for the StreamBuffer: the delay-line invariant (every tap age
// sees the stream delayed by exactly that many shifts), the hybrid
// register/BRAM equivalence, stall robustness, multi-field cells, the
// one-state-element commit footprint and the plan's ledger charges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "model/planner.hpp"
#include "rtl/stream_buffer.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {
namespace {

model::BufferPlan make_plan(std::size_t h, std::size_t w,
                            model::StreamImpl impl,
                            std::size_t threshold = 4) {
  model::PlannerOptions o;
  o.stream_impl = impl;
  o.bram_segment_threshold = threshold;
  return model::Planner(o).plan(h, w, grid::StencilShape::von_neumann4(),
                                grid::BoundarySpec::paper_example());
}

TEST(StreamBuffer, DelayLineInvariantRegisterOnly) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::RegisterOnly);
  StreamBuffer sb(sim, "sb", plan);
  // Feed the sequence 1000, 1001, ...; after n shifts, the tap at age a
  // must hold element n - a.
  const std::size_t total = 3 * plan.window_len();
  for (std::size_t n = 1; n <= total; ++n) {
    sb.shift(static_cast<word_t>(1000 + n - 1));
    sim.step();
    for (std::size_t age = 1; age <= plan.window_len(); ++age) {
      if (n >= age) {
        EXPECT_EQ(sb.tap(age), 1000 + n - age)
            << "n=" << n << " age=" << age;
      }
    }
  }
}

TEST(StreamBuffer, DelayLineInvariantHybridTaps) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  const std::size_t total = 4 * plan.window_len();
  for (std::size_t n = 1; n <= total; ++n) {
    sb.shift(static_cast<word_t>(5000 + n - 1));
    sim.step();
    for (std::size_t age : plan.tap_ages()) {
      if (n >= age + plan.window_len()) {  // past any warm-fill garbage
        EXPECT_EQ(sb.tap(age), 5000 + n - age)
            << "n=" << n << " age=" << age;
      }
    }
  }
}

TEST(StreamBuffer, HybridMatchesRegisterOnlyAtEveryTap) {
  sim::Simulator sim;
  const auto plan_h = make_plan(16, 16, model::StreamImpl::Hybrid);
  const auto plan_r = make_plan(16, 16, model::StreamImpl::RegisterOnly);
  StreamBuffer h(sim, "h", plan_h), r(sim, "r", plan_r);
  Rng rng(42);
  for (int n = 1; n <= 300; ++n) {
    const auto v = static_cast<word_t>(rng.next_u64());
    h.shift(v);
    r.shift(v);
    sim.step();
    if (n > static_cast<int>(plan_h.window_len())) {
      for (std::size_t age : plan_h.tap_ages())
        EXPECT_EQ(h.tap(age), r.tap(age)) << "age " << age;
    }
  }
}

TEST(StreamBuffer, StallsPreserveContents) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  Rng rng(7);
  std::size_t n = 0;
  std::vector<word_t> fed;
  // Interleave shifts with random stalls; the delay-line property must be
  // unaffected by when the stalls happen (BRAM rdata holds).
  while (n < 200) {
    if (rng.chance(1, 3)) {
      sim.step();  // stall cycle: no shift
      continue;
    }
    const auto v = static_cast<word_t>(rng.next_u64() & 0xFFFF);
    fed.push_back(v);
    sb.shift(v);
    sim.step();
    ++n;
    if (n >= plan.window_len()) {
      for (std::size_t age : plan.tap_ages())
        ASSERT_EQ(sb.tap(age), fed[n - age]) << "n=" << n << " age=" << age;
    }
  }
}

TEST(StreamBuffer, TapOnBramAgeRejected) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "sb", plan);
  // Age 5 lies inside the first BRAM segment for the 11-wide plan.
  ASSERT_FALSE(sb.is_reg_age(5));
  EXPECT_THROW(sb.tap(5), contract_error);
}

TEST(StreamBuffer, ResourceChargesSplitRegAndBram) {
  sim::Simulator sim;
  const auto plan = make_plan(11, 11, model::StreamImpl::Hybrid);
  StreamBuffer sb(sim, "top", plan);
  // 11 register stages * 32 bits.
  EXPECT_EQ(sim.ledger().total(sim::ResKind::RegisterBits,
                               "top/stream/window_regs"),
            352u);
  // Two FIFO segments of 7, physically rounded to 8 words each.
  EXPECT_EQ(sim.ledger().total(sim::ResKind::BramBits, "top/stream"), 512u);
}

TEST(StreamBuffer, MultiFieldHybridDelaysEveryFieldUnderStalls) {
  constexpr std::size_t F = 3;
  sim::Simulator sim;
  const auto plan = make_plan(16, 16, model::StreamImpl::Hybrid);
  ASSERT_GE(plan.fifo_segments().size(), 2u);
  StreamBuffer sb(sim, "sb", plan, F);
  Rng rng(11);
  // The stream is preceded by all-zero cells (the reset contents).
  std::vector<word_t> fed;  // F words per shifted cell
  std::size_t n = 0;
  while (n < 4 * plan.window_len()) {
    if (rng.chance(1, 3)) {
      sim.step();  // stall cycle: no shift
    } else {
      word_t cell[F];
      for (word_t& w : cell) {
        w = static_cast<word_t>(rng.next_u64());
        fed.push_back(w);
      }
      sb.shift_cell(cell);
      sim.step();
      ++n;
    }
    for (const std::size_t age : plan.reg_ages()) {
      const word_t* got = sb.tap_slot(sb.slot_of_age(age));
      for (std::size_t f = 0; f < F; ++f) {
        const word_t want = n >= age ? fed[(n - age) * F + f] : 0;
        ASSERT_EQ(got[f], want) << "n=" << n << " age=" << age << " f=" << f;
      }
      ASSERT_EQ(sb.tap(age), got[0]);
    }
  }
}

TEST(StreamBuffer, OneStateElementPerWindow) {
  // The whole window commits as one element, whatever the plan's segment
  // count or cell width.
  for (const auto impl :
       {model::StreamImpl::RegisterOnly, model::StreamImpl::Hybrid}) {
    const auto plan = make_plan(16, 16, impl);
    if (impl == model::StreamImpl::Hybrid) {
      ASSERT_GE(plan.fifo_segments().size(), 2u);
    }
    for (const std::size_t fields : {std::size_t{1}, std::size_t{3}}) {
      sim::Simulator sim;
      const std::size_t before = sim.clocked_count();
      StreamBuffer sb(sim, "sb", plan, fields);
      EXPECT_EQ(sim.clocked_count(), before + 1)
          << model::to_string(impl) << " F=" << fields;
    }
  }
}

TEST(StreamBuffer, MultiFieldChargesScalePerSegment) {
  const auto plan = make_plan(16, 16, model::StreamImpl::Hybrid);
  ASSERT_GE(plan.fifo_segments().size(), 2u);
  sim::Simulator one, three;
  StreamBuffer a(one, "top", plan, 1), b(three, "top", plan, 3);
  EXPECT_EQ(three.ledger().total(sim::ResKind::RegisterBits,
                                 "top/stream/window_regs"),
            3 * one.ledger().total(sim::ResKind::RegisterBits,
                                   "top/stream/window_regs"));
  for (std::size_t s = 0; s < plan.fifo_segments().size(); ++s) {
    const std::string seg = "top/stream/fifo" + std::to_string(s);
    for (const auto kind :
         {sim::ResKind::BramBits, sim::ResKind::BramBlocks}) {
      const std::uint64_t f1 = one.ledger().total(kind, seg);
      ASSERT_GT(f1, 0u);
      EXPECT_EQ(three.ledger().total(kind, seg), 3 * f1) << seg;
      // Field 0 keeps the bare segment path; fields 1 and 2 get their own
      // banks under /f<k>, each charged like field 0.
      for (const char* sub : {"/f1", "/f2"})
        EXPECT_EQ(three.ledger().total(kind, seg + sub), f1) << seg << sub;
    }
    // The field banks share one pointer register.
    EXPECT_EQ(three.ledger().total(sim::ResKind::RegisterBits, seg + "/ptr"),
              one.ledger().total(sim::ResKind::RegisterBits, seg + "/ptr"));
    EXPECT_GT(one.ledger().total(sim::ResKind::RegisterBits, seg + "/ptr"),
              0u);
  }
}

TEST(StreamBuffer, WiderThresholdMovesElementsToRegisters) {
  sim::Simulator sim;
  const auto plan = make_plan(32, 32, model::StreamImpl::Hybrid, 16);
  // Gap of 30 interior elements still exceeds threshold 16 -> FIFOs; but
  // with threshold 40 everything is registers.
  const auto plan_all = make_plan(32, 32, model::StreamImpl::Hybrid, 40);
  EXPECT_GT(plan.bram_window_elems(), 0u);
  EXPECT_EQ(plan_all.bram_window_elems(), 0u);
  EXPECT_EQ(plan_all.reg_window_elems(), plan_all.window_len());
}

}  // namespace
}  // namespace smache::rtl
