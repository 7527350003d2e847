// Interfaces of the two-phase (eval/commit) cycle simulator.
//
// The substrate mimics an HDL simulator with exclusively non-blocking
// assignment: during a cycle every Module::eval reads only *committed* state
// and schedules next-state writes; after all modules evaluated, every Clocked
// element with a pending write commits atomically. Consequences:
//   * module evaluation order never affects results (like well-formed RTL);
//   * a value written at cycle t is visible at cycle t+1, exactly one
//     flip-flop stage.
//
// Commit scheduling is activity-based: scheduling a write enqueues the
// element on the owning Simulator's RETAINED commit set (via mark_dirty()),
// and the commit phase walks only that set. Most registered elements are
// idle in any given cycle — a large design registers thousands of state
// elements but touches dozens per cycle — so commits cost O(writes), not
// O(elements). The set is retained across cycles: an element that keeps
// writing stays enqueued (the steady-state hot path is one flag store per
// write, no queue churn), and an element that goes quiet is dropped during
// the first commit sweep that finds it unwritten. Because commits are
// non-blocking and each element only mutates its own state, commit order
// cannot affect results — and committing is skipped entirely for retained
// elements that scheduled nothing this cycle.
//
// Every element commits through one of three shapes, each defined once
// below and dispatched by a switch, never a virtual call:
//   * CopyRegister — q <- next (Reg, RegGroup, RegArray);
//   * FifoPointers — a pop advances the head, a push publishes the staged
//     slot, and the channel's consumer/producer is woken (Fifo);
//   * RamPort      — a 1R1W RAM port, read-before-write (mem::BramBank).
//
// Eval scheduling is activity-gated the same way (see Module below): a
// module that declares quiescence is removed from the Simulator's active
// list and its eval() is not called again until a wake event — a FIFO
// commit it subscribed to, a wake-at-cycle timer, or an explicit wake().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ring_buffer.hpp"

namespace smache::sim {

class Simulator;
class Module;

/// A state element participating in the clock edge. Every element has one
/// of three commit shapes — the state the paper's FSMs share (registers,
/// FIFOs, block RAM, Fig. 1b) — and derives from the shape base that
/// defines it: CopyRegister, FifoPointers or RamPort. There is no other
/// commit and no virtual dispatch: the commit sweep switches on the shape.
/// An element registers with the Simulator (construction does this), calls
/// mark_dirty() whenever it schedules a next-state write, and changes
/// observable state only through its shape's commit. The commit runs only
/// on cycles where the element marked itself dirty (the retained commit
/// set may hold an element one sweep past its last write, but its commit
/// is not re-run).
class Clocked {
 public:
  // Non-copyable: an element is registered with one simulator, and a copy
  // register's commit pointers point back into the element itself — a
  // copy would alias the original's registration and dangle its pointers.
  Clocked(const Clocked&) = delete;
  Clocked& operator=(const Clocked&) = delete;

 protected:
  enum class Shape : std::uint8_t { Copy, Fifo, Ram };

  explicit Clocked(Shape shape) noexcept : shape_(shape) {}
  ~Clocked() = default;

  /// Enqueue this element on the owning simulator's dirty list (idempotent
  /// within a cycle). Defined in simulator.hpp, next to the queue it feeds.
  void mark_dirty();

 private:
  friend class Simulator;

  Simulator* sim_ = nullptr;  // set by Simulator::register_clocked
  bool queued_ = false;       // on the simulator's retained commit set
  bool wrote_ = false;        // scheduled a write THIS cycle
  Shape shape_;
};

/// Copy shape: a register block whose clock edge is q <- next. The owner
/// (Reg, RegGroup, RegArray) holds both copies and binds them once.
class CopyRegister : public Clocked {
 protected:
  CopyRegister() noexcept : Clocked(Shape::Copy) {}

  /// Commit `bytes` from `next` to `q` at each clock edge.
  void bind(void* q, const void* next, std::uint32_t bytes) noexcept {
    q_ = q;
    next_ = next;
    bytes_ = bytes;
  }

 private:
  friend class Simulator;

  void commit() noexcept {
    // Single-word registers (the common Reg<T> widths) commit with one
    // inline move; only block elements go through a sized memcpy.
    switch (bytes_) {
      case 1:
        *static_cast<std::uint8_t*>(q_) =
            *static_cast<const std::uint8_t*>(next_);
        break;
      case 4:
        std::memcpy(q_, next_, 4);
        break;
      case 8:
        std::memcpy(q_, next_, 8);
        break;
      default:
        std::memcpy(q_, next_, bytes_);
        break;
    }
  }

  void* q_ = nullptr;
  const void* next_ = nullptr;
  std::uint32_t bytes_ = 0;
};

/// FIFO shape: the head/occupancy pointers of a ring of `capacity` slots
/// (the slots themselves live in the owner, sim::Fifo). At the clock edge
/// a pending pop advances the head and a pending push publishes the value
/// already staged in slot(size): that slot index is invariant under a
/// same-cycle pop, because head and size move in lockstep.
/// `consumer_`/`producer_` are the channel's commit-time wake targets: a
/// committed push wakes the consumer exactly when the data becomes
/// poppable, a committed pop wakes the producer exactly when the space
/// becomes pushable.
class FifoPointers : public Clocked {
 protected:
  explicit FifoPointers(std::size_t capacity) noexcept
      : Clocked(Shape::Fifo), capacity_(capacity) {}

  /// Ring index of the element `i` positions behind the head.
  std::size_t slot(std::size_t i) const noexcept {
    return ring_index(head_, i, capacity_);
  }

  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;  // committed occupancy
  bool push_pending_ = false;
  bool pop_pending_ = false;
  Module* consumer_ = nullptr;
  Module* producer_ = nullptr;

 private:
  friend class Simulator;

  /// Defined in simulator.hpp: waking a module counts sched/wakes/channel.
  void commit(Simulator& sim) noexcept;
};

/// RAM shape: a 1R1W synchronous RAM port. At the clock edge the pending
/// read latches its data before the pending write lands (read-before-write).
class RamPort : public Clocked {
 protected:
  explicit RamPort(std::size_t depth)
      : Clocked(Shape::Ram), store_(depth, 0) {}

  std::vector<std::uint64_t> store_;
  std::size_t read_addr_ = 0;
  std::uint64_t rdata_ = 0;
  std::size_t write_addr_ = 0;
  std::uint64_t write_value_ = 0;
  bool read_pending_ = false;
  bool write_pending_ = false;

 private:
  friend class Simulator;

  void commit() noexcept {
    if (read_pending_) {
      rdata_ = store_[read_addr_];
      read_pending_ = false;
    }
    if (write_pending_) {
      store_[write_addr_] = write_value_;
      write_pending_ = false;
    }
  }
};

/// A behavioural block evaluated once per cycle while AWAKE. eval() may read
/// committed state anywhere and schedule writes on Regs/Fifos/Brams; it must
/// not observe its own same-cycle writes.
///
/// Activity gating: a module that can prove it is quiescent — its eval()
/// would change NO observable state (registers, FIFOs, BRAMs, DRAM stats,
/// trace rows) until some event — may call sleep() / sleep_for() from inside
/// its eval(). The simulator then skips the module entirely until a wake:
///   * a FIFO the module registered on (Fifo::set_consumer/set_producer)
///     commits a push/pop — fired at COMMIT time, i.e. exactly the cycle
///     boundary where the data/space becomes visible to the module;
///   * the wake-at-cycle timer from sleep_for(n) expires (the module evals
///     again exactly n cycles after the eval that called sleep_for);
///   * any code calls wake() explicitly.
/// Sleeping is always a pure optimisation, never a semantic: the quiescence
/// claim is the module's contract, and Simulator::set_force_eval_all(true)
/// disables gating so property tests can cross-check the two modes
/// bit-for-bit.
class Module {
 public:
  virtual ~Module() = default;
  virtual void eval() = 0;

  /// True while the scheduler is skipping this module.
  bool asleep() const noexcept { return asleep_; }

  /// Cancel a sleep (idempotent, cheap when awake). Takes effect for the
  /// next eval sweep: a module woken during cycle t's eval or commit phase
  /// is evaluated from cycle t+1 on. Defined in simulator.hpp.
  void wake() noexcept;

  /// Name this module for observability output: per-module cycle
  /// attribution metrics ("sched/module/<name>/...") and span lanes use it
  /// instead of the positional "module<N>" default. Call from the module's
  /// constructor (the name is interned once). Defined in simulator.hpp.
  void set_obs_name(std::string_view name);

 protected:
  /// Declare quiescence until a registered wake event (defined in
  /// simulator.hpp). No-op unless the owning simulator allows gating.
  void sleep() noexcept;

  /// Declare quiescence for AT MOST `n` cycles (n >= 1): the module is
  /// re-evaluated at now()+n even if no event fires earlier. Use with a
  /// sound lower bound on the cycles until the module can next act to get
  /// exact re-check scheduling (same argument as run_until_done).
  void sleep_for(std::uint64_t n) noexcept;

 private:
  friend class Simulator;
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};

  Simulator* sched_ = nullptr;     // set by Simulator::add_module
  std::uint64_t wake_at_ = kNoWake;
  bool asleep_ = false;
  bool timed_queued_ = false;  // on the simulator's timed-sleeper list

  // -- observability (see Simulator::enable_profiling/enable_spans; all
  // fields are scheduler-maintained and cost nothing when disabled) --
  const std::string* obs_path_ = nullptr;  // interned display name
  std::uint64_t obs_awake_cycles_ = 0;     // cycles this module evaluated
  std::uint64_t obs_awake_since_ = 0;      // open activity-span start
  std::uint32_t obs_lane_ = 0;             // span lane id
};

}  // namespace smache::sim
