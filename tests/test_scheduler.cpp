// Activity-gated eval scheduling (PR 3 tentpole).
//
// Part 1 — unit tests of the scheduler machinery itself: sleep/wake via
// FIFO commit events, wake-at-cycle timers, explicit wake(), force-eval
// mode, and the all-asleep fast-forward.
//
// Part 2 — the equivalence property: for randomized problem configurations
// with DRAM stall injection and tight (back-pressuring) channel depths,
// the gated scheduler must produce BIT-IDENTICAL results — cycle counts,
// DRAM counters, outputs — to force-eval-everything mode. Quiescence
// declarations are module contracts; this is the test that catches a wrong
// one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

/// Consumer that drains a FIFO one element per cycle and sleeps whenever
/// the channel is empty, relying on the push-commit wake.
class SleepyConsumer : public sim::Module {
 public:
  SleepyConsumer(sim::Simulator& sim, sim::Fifo<int>& in) : in_(in) {
    in_.set_consumer(this);
    sim.add_module(this);
  }
  void eval() override {
    ++evals;
    if (!in_.can_pop()) {
      sleep();
      return;
    }
    values.push_back(in_.pop());
  }
  std::vector<int> values;
  std::uint64_t evals = 0;

 private:
  sim::Fifo<int>& in_;
};

TEST(Scheduler, ConsumerSleepsUntilPushCommit) {
  sim::Simulator sim;
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);

  // Cycle 0: empty channel -> consumer evals once and goes to sleep.
  sim.step();
  EXPECT_EQ(consumer.evals, 1u);
  EXPECT_TRUE(consumer.asleep());
  EXPECT_EQ(sim.awake_module_count(), 0u);

  // Idle cycles: the sleeping module is not evaluated at all.
  sim.step();
  sim.step();
  EXPECT_EQ(consumer.evals, 1u);

  // A push from the testbench commits at the end of this cycle and wakes
  // the consumer exactly when the value becomes poppable: it pops on the
  // NEXT cycle, one flip-flop stage after the push — the same cycle a
  // never-sleeping consumer would pop on.
  chan.push(7);
  sim.step();  // push commits here; consumer still asleep this cycle
  EXPECT_EQ(consumer.evals, 1u);
  sim.step();  // woken: pops the value
  EXPECT_EQ(consumer.values, std::vector<int>{7});

  // Nothing further arrives: one more eval (sees empty, sleeps), then
  // silence.
  sim.step();
  const std::uint64_t evals_after_drain = consumer.evals;
  sim.step();
  sim.step();
  EXPECT_EQ(consumer.evals, evals_after_drain);
}

/// Module that sleeps for a fixed interval and records the cycles at which
/// it was evaluated.
class TimerSleeper : public sim::Module {
 public:
  TimerSleeper(sim::Simulator& sim, std::uint64_t interval)
      : sim_(sim), interval_(interval) {
    sim.add_module(this);
  }
  void eval() override {
    eval_cycles.push_back(sim_.now());
    sleep_for(interval_);
  }
  std::vector<std::uint64_t> eval_cycles;

 private:
  sim::Simulator& sim_;
  std::uint64_t interval_;
};

/// Producer that pushes `count` values at most one per `gap` cycles (a
/// timer sleep between pushes) and sleeps on a full channel until the
/// pop-commit wake.
class PacedProducer : public sim::Module {
 public:
  PacedProducer(sim::Simulator& sim, sim::Fifo<int>& out, int count,
                std::uint64_t gap)
      : sim_(sim), out_(out), count_(count), gap_(gap) {
    out_.set_producer(this);
    sim.add_module(this);
  }
  void eval() override {
    ++evals;
    if (next_ == count_) {
      sleep();
      return;
    }
    if (sim_.now() < ready_at_) {  // woken early by a pop commit
      sleep_for(ready_at_ - sim_.now());
      return;
    }
    if (!out_.can_push()) {
      sleep();
      return;
    }
    out_.push(next_++);
    ready_at_ = sim_.now() + gap_;
    sleep_for(gap_);
  }
  std::uint64_t evals = 0;

 private:
  sim::Simulator& sim_;
  sim::Fifo<int>& out_;
  int count_;
  std::uint64_t gap_;
  int next_ = 0;
  std::uint64_t ready_at_ = 0;
};

TEST(Scheduler, FifoCommitWakesSleeperAndCountsOneChannelWake) {
  {
    // A committed push wakes the asleep consumer; a push committing while
    // it is awake is no wake at all.
    sim::Simulator sim;
    sim.enable_profiling();
    sim::Fifo<int> chan(sim, "chan", 2);
    SleepyConsumer consumer(sim, chan);
    sim.step();  // empty channel: the consumer sleeps
    ASSERT_TRUE(consumer.asleep());
    chan.push(1);
    sim.step();  // the push commit wakes it
    EXPECT_FALSE(consumer.asleep());
    chan.push(2);
    sim.step();  // consumer pops 1 while awake; the push of 2 commits
    EXPECT_EQ(consumer.values, std::vector<int>{1});
    sim.finalize_observability();
    EXPECT_EQ(sim.metrics().value("sched/wakes/channel"), 1u);
    EXPECT_EQ(sim.metrics().value("sched/wakes/explicit"), 0u);
  }
  {
    // A committed pop wakes the producer asleep on a full channel.
    sim::Simulator sim;
    sim.enable_profiling();
    sim::Fifo<int> chan(sim, "chan", 1);
    PacedProducer producer(sim, chan, 3, 1);
    sim.step();  // pushes 0
    sim.step();  // full: sleeps until a pop commits
    sim.step();
    ASSERT_TRUE(producer.asleep());
    EXPECT_EQ(producer.evals, 2u);
    EXPECT_EQ(chan.pop(), 0);
    sim.step();  // the pop commit wakes it
    EXPECT_FALSE(producer.asleep());
    sim.step();  // pushes 1
    EXPECT_EQ(producer.evals, 3u);
    EXPECT_EQ(chan.front(), 1);
    sim.finalize_observability();
    EXPECT_EQ(sim.metrics().value("sched/wakes/channel"), 1u);
    EXPECT_EQ(sim.metrics().value("sched/wakes/explicit"), 0u);
  }
}

TEST(Scheduler, SleepForWakesExactlyOnSchedule) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 5);
  for (int i = 0; i < 16; ++i) sim.step();
  // Evaluated at cycle 0, then exactly every 5 cycles.
  EXPECT_EQ(mod.eval_cycles,
            (std::vector<std::uint64_t>{0, 5, 10, 15}));
}

TEST(Scheduler, RunUntilFastForwardsThroughAllAsleepStretch) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 1000);
  // Between the timer wakes nothing is active and nothing is pending
  // commit, so the burst stepping jumps whole idle stretches in O(1) —
  // with unchanged cycle arithmetic: the run reports the exact same cycle
  // count per-cycle stepping would.
  const std::uint64_t stepped = sim.run_until_done(
      [&] { return mod.eval_cycles.size() >= 3; },
      // Sound lower bound: the third eval happens at cycle 2000, so done()
      // first holds once cycle 2000 has completed.
      [&] {
        return mod.eval_cycles.size() >= 3 ? 0 : 2001 - sim.now();
      },
      100000);
  EXPECT_EQ(stepped, 2001u);  // evals at 0, 1000, 2000
  EXPECT_EQ(sim.now(), 2001u);
  EXPECT_EQ(mod.eval_cycles, (std::vector<std::uint64_t>{0, 1000, 2000}));
}

TEST(Scheduler, StepLoopMatchesRunUntilDone) {
  // step() is a one-cycle burst of the loop run_until_done drives, so a
  // module-driven design — channel sleepers and timer sleepers — reaches
  // the same cycle, state and cycle attribution under either driver.
  constexpr int kValues = 12;
  struct Design {
    sim::Simulator sim;
    sim::Fifo<int> chan{sim, "chan", 2};
    PacedProducer producer{sim, chan, kValues, 5};
    SleepyConsumer consumer{sim, chan};
    TimerSleeper timer{sim, 7};
    Design() { sim.enable_profiling(); }
    bool done() const { return consumer.values.size() == kValues; }
    std::uint64_t metric(const char* path) const {
      return sim.metrics().value(path);
    }
  };
  Design stepped;
  while (!stepped.done()) stepped.sim.step();
  Design burst;
  const std::uint64_t cycles = burst.sim.run_until_done(
      [&] { return burst.done(); },
      // Sound: the consumer takes at most one value per cycle.
      [&] { return kValues - burst.consumer.values.size(); }, 100000);

  EXPECT_EQ(cycles, stepped.sim.now());
  EXPECT_EQ(burst.sim.now(), stepped.sim.now());
  EXPECT_EQ(burst.consumer.values, stepped.consumer.values);
  EXPECT_EQ(burst.consumer.evals, stepped.consumer.evals);
  EXPECT_EQ(burst.producer.evals, stepped.producer.evals);
  EXPECT_EQ(burst.timer.eval_cycles, stepped.timer.eval_cycles);
  for (Design* d : {&stepped, &burst}) {
    d->sim.finalize_observability();
    EXPECT_EQ(d->metric("sched/cycles/eval") + d->metric("sched/cycles/idle") +
                  d->metric("sched/cycles/fastforward"),
              d->metric("sched/cycles/total"));
    EXPECT_GT(d->metric("sched/cycles/fastforward"), 0u);
  }
  for (const char* path :
       {"sched/cycles/total", "sched/cycles/eval", "sched/cycles/idle",
        "sched/cycles/fastforward", "sched/wakes/channel",
        "sched/wakes/timer"})
    EXPECT_EQ(burst.metric(path), stepped.metric(path)) << path;
}

TEST(Scheduler, ExplicitWakeCancelsTimerSleep) {
  sim::Simulator sim;
  TimerSleeper mod(sim, 100);
  sim.step();  // evals at 0, sleeps until 100
  EXPECT_TRUE(mod.asleep());
  mod.wake();
  sim.step();  // evals at 1 (re-arms its timer from there)
  EXPECT_EQ(mod.eval_cycles, (std::vector<std::uint64_t>{0, 1}));
}

TEST(Scheduler, ForceEvalAllDisablesSleeping) {
  sim::Simulator sim;
  sim.set_force_eval_all(true);
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);
  for (int i = 0; i < 10; ++i) sim.step();
  EXPECT_EQ(consumer.evals, 10u);  // sleep() was a no-op every time
  EXPECT_FALSE(consumer.asleep());
}

TEST(Scheduler, ForceEvalAllWakesCurrentSleepers) {
  sim::Simulator sim;
  sim::Fifo<int> chan(sim, "chan", 4);
  SleepyConsumer consumer(sim, chan);
  sim.step();
  EXPECT_TRUE(consumer.asleep());
  sim.set_force_eval_all(true);
  EXPECT_FALSE(consumer.asleep());
  sim.step();
  EXPECT_EQ(consumer.evals, 2u);
}

// ---------------------------------------------------------------------------
// Part 2: gated vs force-eval equivalence property.
// ---------------------------------------------------------------------------

struct RunDigest {
  std::uint64_t cycles;
  std::uint64_t warmup;
  mem::DramStats dram;
  grid::Grid<word_t> output{1, 1};
};

RunDigest digest(const RunResult& r) {
  return RunDigest{r.cycles, r.warmup_cycles, r.dram, *r.output};
}

void expect_same(const RunDigest& gated, const RunDigest& forced,
                 const std::string& label) {
  EXPECT_EQ(gated.cycles, forced.cycles) << label;
  EXPECT_EQ(gated.warmup, forced.warmup) << label;
  EXPECT_EQ(gated.dram.read_requests, forced.dram.read_requests) << label;
  EXPECT_EQ(gated.dram.words_read, forced.dram.words_read) << label;
  EXPECT_EQ(gated.dram.words_written, forced.dram.words_written) << label;
  EXPECT_EQ(gated.dram.row_hits, forced.dram.row_hits) << label;
  EXPECT_EQ(gated.dram.row_misses, forced.dram.row_misses) << label;
  EXPECT_EQ(gated.dram.read_busy_cycles, forced.dram.read_busy_cycles)
      << label;
  EXPECT_EQ(gated.dram.injected_stall_cycles,
            forced.dram.injected_stall_cycles)
      << label;
  EXPECT_TRUE(gated.output == forced.output) << label;
}

TEST(SchedulerEquivalence, RandomizedStallAndBackpressureSweep) {
  Rng rng(0x5EED);
  const grid::StencilShape shapes[] = {grid::StencilShape::von_neumann4(),
                                       grid::StencilShape::moore9(),
                                       grid::StencilShape::upwind3()};
  const grid::BoundarySpec bcs[] = {
      grid::BoundarySpec::paper_example(), grid::BoundarySpec::all_open(),
      grid::BoundarySpec::all_mirror(),
      {grid::AxisBoundary::constant_halo(5), grid::AxisBoundary::open()}};

  for (int trial = 0; trial < 24; ++trial) {
    ProblemSpec p;
    p.height = 4 + rng.next_below(8);
    p.width = 4 + rng.next_below(8);
    p.shape = shapes[rng.next_below(3)];
    p.bc = bcs[rng.next_below(4)];
    p.steps = 1 + rng.next_below(3);
    const auto rspan = static_cast<std::size_t>(p.shape.dr_max() -
                                                p.shape.dr_min());
    const auto cspan = static_cast<std::size_t>(p.shape.dc_max() -
                                                p.shape.dc_min());
    if (p.height <= rspan || p.width <= cspan) continue;

    EngineOptions opts;
    opts.arch =
        rng.next_below(2) == 0 ? Architecture::Smache : Architecture::Baseline;
    // Randomized stall injection: periodic multi-cycle DRAM freezes.
    if (rng.next_below(2) == 0) {
      opts.dram.stall_every = 5 + rng.next_below(40);
      opts.dram.stall_cycles = 1 + rng.next_below(9);
    }
    // Randomized back-pressure: tight data/request queues and a deeper
    // read latency force every freeze/wake path in the DRAM and tops.
    opts.dram.read_latency = 1 + rng.next_below(8);
    opts.dram.data_queue_depth = 1 + rng.next_below(3);
    opts.dram.req_queue_depth = 1 + rng.next_below(3);
    opts.dram.write_queue_depth = 1 + rng.next_below(3);

    const auto init = test_support::random_grid(
        p.height, p.width, 7000 + static_cast<std::uint64_t>(trial));

    EngineOptions forced = opts;
    forced.force_eval_all = true;
    const std::string label =
        "trial " + std::to_string(trial) + " " + to_string(opts.arch) + " " +
        std::to_string(p.height) + "x" + std::to_string(p.width) +
        " stall_every=" + std::to_string(opts.dram.stall_every) +
        " lat=" + std::to_string(opts.dram.read_latency);

    expect_same(digest(Engine(opts).run(p, init)),
                digest(Engine(forced).run(p, init)), label);
  }
}

TEST(SchedulerEquivalence, CascadeGatedMatchesForced) {
  ProblemSpec p;
  p.height = 10;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.steps = 6;
  EngineOptions opts = EngineOptions::smache();
  opts.dram.stall_every = 13;
  opts.dram.stall_cycles = 4;
  opts.dram.data_queue_depth = 2;
  EngineOptions forced = opts;
  forced.force_eval_all = true;
  const auto init = test_support::random_grid(10, 10, 4711);
  expect_same(digest(Engine(opts).run_cascade(p, init, 3)),
              digest(Engine(forced).run_cascade(p, init, 3)), "cascade");
}

TEST(SchedulerEquivalence, DdrLikeRowModelGatedMatchesForced) {
  ProblemSpec p = ProblemSpec::paper_example();
  p.height = 16;
  p.width = 16;
  p.steps = 4;
  EngineOptions opts = EngineOptions::smache();
  opts.dram = mem::DramConfig::ddr_like();
  EngineOptions forced = opts;
  forced.force_eval_all = true;
  const auto init = test_support::random_grid(16, 16, 99);
  expect_same(digest(Engine(opts).run(p, init)),
              digest(Engine(forced).run(p, init)), "ddr_like");
}

}  // namespace
}  // namespace smache
