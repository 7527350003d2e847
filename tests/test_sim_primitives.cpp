// Unit tests for the two-phase simulation substrate: Reg, RegArray, Fifo,
// FsmState, ResourceLedger, Simulator scheduling semantics.
#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "sim/fifo.hpp"
#include "sim/fsm.hpp"
#include "sim/reg.hpp"
#include "sim/resources.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/simulator.hpp"

namespace smache::sim {
namespace {

TEST(Reg, HoldsUntilCommitted) {
  Simulator sim;
  Reg<int> r(sim, "r", 7);
  EXPECT_EQ(r.q(), 7);
  r.d(42);
  EXPECT_EQ(r.q(), 7) << "write must not be visible before the clock edge";
  sim.step();
  EXPECT_EQ(r.q(), 42);
}

TEST(Reg, HoldsValueWithoutWrite) {
  Simulator sim;
  Reg<int> r(sim, "r", 5);
  sim.step();
  sim.step();
  EXPECT_EQ(r.q(), 5);
}

TEST(Reg, LastWriteInCycleWins) {
  Simulator sim;
  Reg<int> r(sim, "r", 0);
  r.d(1);
  r.d(2);
  sim.step();
  EXPECT_EQ(r.q(), 2);
}

TEST(Reg, ChargesExplicitBits) {
  Simulator sim;
  Reg<int> a(sim, "grp/a", 0, 7);
  Reg<bool> b(sim, "grp/b", false);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "grp"), 8u);
}

TEST(RegArray, SparseWritesCommitTogether) {
  Simulator sim;
  RegArray<int> w(sim, "w", 3, 0);
  w.d(0, 1);
  w.d(2, 3);
  EXPECT_EQ(w.q(0), 0);
  sim.step();
  EXPECT_EQ(w.q(0), 1);
  EXPECT_EQ(w.q(1), 0);
  EXPECT_EQ(w.q(2), 3);
}

TEST(RegArray, ChargesCountTimesBits) {
  Simulator sim;
  RegArray<std::uint32_t> w(sim, "arr", 25, 0u, 32);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "arr"), 800u);
}

TEST(Fifo, PushVisibleNextCycle) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  EXPECT_FALSE(f.can_pop());
  f.push(1);
  EXPECT_FALSE(f.can_pop()) << "pushed data must not be poppable same cycle";
  sim.step();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, SinglePushPerCycleEnforced) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  f.push(1);
  EXPECT_FALSE(f.can_push());
  EXPECT_THROW(f.push(2), contract_error);
}

TEST(Fifo, SinglePopPerCycleEnforced) {
  Simulator sim;
  Fifo<int> f(sim, "f", 4);
  f.push(1);
  sim.step();
  f.push(2);
  sim.step();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());
  EXPECT_THROW(f.pop(), contract_error);
}

TEST(Fifo, RegisteredFullSemantics) {
  // A pop in the same cycle does NOT free space for a push (full flag is
  // registered), keeping producer/consumer order irrelevant.
  Simulator sim;
  Fifo<int> f(sim, "f", 1);
  f.push(1);
  sim.step();
  EXPECT_FALSE(f.can_push());
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_push()) << "same-cycle pop must not unlock can_push";
  sim.step();
  EXPECT_TRUE(f.can_push());
}

TEST(Fifo, FifoOrderPreserved) {
  Simulator sim;
  Fifo<int> f(sim, "f", 8);
  for (int i = 0; i < 5; ++i) {
    f.push(i);
    sim.step();
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.can_pop());
    EXPECT_EQ(f.pop(), i);
    sim.step();
  }
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, ConcurrentPushPopSteadyState) {
  Simulator sim;
  Fifo<int> f(sim, "f", 2);
  f.push(0);
  sim.step();
  // Push and pop every cycle: occupancy stays put, data flows in order.
  for (int i = 1; i < 20; ++i) {
    ASSERT_TRUE(f.can_pop());
    EXPECT_EQ(f.pop(), i - 1);
    ASSERT_TRUE(f.can_push());
    f.push(i);
    sim.step();
  }
}

enum class St { A, B, C };

TEST(FsmState, TransitionNextCycle) {
  Simulator sim;
  FsmState<St> fsm(sim, "fsm", St::A, 3);
  EXPECT_TRUE(fsm.is(St::A));
  fsm.go(St::B);
  EXPECT_TRUE(fsm.is(St::A));
  sim.step();
  EXPECT_TRUE(fsm.is(St::B));
}

TEST(FsmState, LogRecordsTransitions) {
  Simulator sim;
  FsmState<St> fsm(sim, "fsm", St::A, 3);
  fsm.enable_log();
  fsm.go(St::B);
  sim.step();
  fsm.go(St::C);
  sim.step();
  ASSERT_EQ(fsm.log().size(), 2u);
  EXPECT_EQ(fsm.log()[0].to, St::B);
  EXPECT_EQ(fsm.log()[1].from, St::B);
  EXPECT_EQ(fsm.log()[1].cycle, 1u);
}

TEST(FsmState, ChargesBinaryEncodingBits) {
  Simulator sim;
  FsmState<St> fsm(sim, "fsm3", St::A, 3);
  EXPECT_EQ(sim.ledger().total(ResKind::RegisterBits, "fsm3"), 2u);
}

TEST(Ledger, PrefixMatchingIsSegmentAware) {
  ResourceLedger ledger;
  ledger.add("a/b", ResKind::RegisterBits, 1);
  ledger.add("a/bc", ResKind::RegisterBits, 2);
  ledger.add("a/b/c", ResKind::RegisterBits, 4);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "a/b"), 5u);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "a"), 7u);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits), 7u);
}

TEST(Ledger, SeparatesKinds) {
  ResourceLedger ledger;
  ledger.add("x", ResKind::RegisterBits, 10);
  ledger.add("x", ResKind::BramBits, 20);
  EXPECT_EQ(ledger.total(ResKind::RegisterBits, "x"), 10u);
  EXPECT_EQ(ledger.total(ResKind::BramBits, "x"), 20u);
}

TEST(Simulator, RunUntilStopsOnPredicate) {
  Simulator sim;
  Reg<int> r(sim, "r", 0);
  struct Counter : Module {
    Reg<int>& r;
    explicit Counter(Reg<int>& reg) : r(reg) {}
    void eval() override { r.d(r.q() + 1); }
  } counter(r);
  sim.add_module(&counter);
  const auto cycles = sim.run_until([&] { return r.q() == 10; }, 100);
  EXPECT_EQ(cycles, 10u);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilThrowsOnBudgetExhaustion) {
  Simulator sim;
  EXPECT_THROW(sim.run_until([] { return false; }, 5), contract_error);
}

TEST(RingBuffer, WrapsAroundManyTimes) {
  RingBuffer<int> rb(3);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    while (!rb.full()) rb.push_back(next_in++);
    EXPECT_EQ(rb.size(), 3u);
    EXPECT_EQ(rb.at(0), next_out);
    EXPECT_EQ(rb.at(2), next_out + 2);
    rb.pop_front();
    ++next_out;
    EXPECT_EQ(rb.front(), next_out);
  }
  EXPECT_THROW(rb.at(3), smache::contract_error);
}

TEST(Fifo, StagedPushSurvivesSameCyclePop) {
  // The slot a push stages into must stay the published back slot when a
  // same-cycle pop advances the head at the clock edge — the FIFO commit's
  // pop-then-push order — across every wrap of the ring.
  Simulator sim;
  Fifo<int> f(sim, "f", 3);
  f.push(0);
  sim.step();
  f.push(1);
  sim.step();
  for (int next = 2; next < 20; ++next) {
    EXPECT_EQ(f.pop(), next - 2);
    f.push_slot() = next;
    sim.step();
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.front(), next - 1);
  }
}

TEST(Fifo, PushSlotAndDropMatchPushAndPop) {
  // The zero-copy producer/consumer calls must be cycle-for-cycle
  // equivalent to push()/pop().
  Simulator sim;
  Fifo<int> copy(sim, "copy", 2);
  Fifo<int> zero(sim, "zero", 2);
  int popped_copy = -1, popped_zero = -1;
  for (int cycle = 0; cycle < 40; ++cycle) {
    EXPECT_EQ(copy.can_pop(), zero.can_pop());
    EXPECT_EQ(copy.can_push(), zero.can_push());
    if (copy.can_pop() && cycle % 3 != 0) {
      popped_copy = copy.pop();
      popped_zero = zero.front();
      zero.drop();
      EXPECT_EQ(popped_copy, popped_zero);
    }
    if (copy.can_push() && cycle % 2 == 0) {
      copy.push(cycle);
      zero.push_slot() = cycle;
    }
    sim.step();
    EXPECT_EQ(copy.size(), zero.size());
  }
}

TEST(Simulator, RunUntilDoneMatchesPerCycleChecking) {
  // With a sound lower bound the burst-stepping driver must return the
  // exact cycle count of the per-cycle-checked loop.
  struct Counter : Module {
    Reg<int>& r;
    explicit Counter(Reg<int>& reg) : r(reg) {}
    void eval() override { r.d(r.q() + 1); }
  };
  const int target = 37;
  Simulator per_cycle;
  Reg<int> r1(per_cycle, "r", 0);
  Counter c1(r1);
  per_cycle.add_module(&c1);
  const auto cycles_a =
      per_cycle.run_until([&] { return r1.q() == target; }, 1000);

  Simulator batched;
  Reg<int> r2(batched, "r", 0);
  Counter c2(r2);
  batched.add_module(&c2);
  const auto cycles_b = batched.run_until_done(
      [&] { return r2.q() == target; },
      [&] { return static_cast<std::uint64_t>(target - r2.q()); }, 1000);
  EXPECT_EQ(cycles_a, cycles_b);
  EXPECT_EQ(per_cycle.now(), batched.now());
  EXPECT_EQ(r1.q(), r2.q());
}

TEST(Simulator, RunUntilDoneThrowsOnBudgetExhaustion) {
  // The bound must never let a run sail past max_cycles: a bound larger
  // than the remaining budget is clamped, and the throw happens exactly
  // at the budget like the per-cycle loop.
  Simulator sim;
  Reg<int> r(sim, "r", 0);
  struct Counter : Module {
    Reg<int>& r;
    explicit Counter(Reg<int>& reg) : r(reg) {}
    void eval() override { r.d(r.q() + 1); }
  } counter(r);
  sim.add_module(&counter);
  EXPECT_THROW(sim.run_until_done([] { return false; },
                                  [] { return std::uint64_t{1000000}; }, 5),
               contract_error);
  EXPECT_EQ(sim.now(), 5u) << "budget overrun: stepped past max_cycles";
}

TEST(Simulator, ModuleOrderIrrelevantForRegComms) {
  // Two modules exchange values through registers; whichever order they
  // are registered in, after a step both see the other's PREVIOUS value.
  struct Echo : Module {
    Reg<int>&mine, &theirs;
    Echo(Reg<int>& m, Reg<int>& t) : mine(m), theirs(t) {}
    void eval() override { mine.d(theirs.q() + 1); }
  };
  for (int order = 0; order < 2; ++order) {
    Simulator sim;
    Reg<int> a(sim, "a", 0), b(sim, "b", 100);
    Echo ea(a, b), eb(b, a);
    if (order == 0) {
      sim.add_module(&ea);
      sim.add_module(&eb);
    } else {
      sim.add_module(&eb);
      sim.add_module(&ea);
    }
    sim.step();
    EXPECT_EQ(a.q(), 101);
    EXPECT_EQ(b.q(), 1);
  }
}

}  // namespace
}  // namespace smache::sim
