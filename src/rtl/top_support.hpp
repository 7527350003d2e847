// The pipeline stage the three top-level designs (Smache, baseline,
// cascade) share — gather -> kernel -> write-back over ping-pong DRAM
// regions — as helpers acting on each top's own registers:
//   * the ping-pong region bases and the instance fence (TopModule);
//   * the completion lower bound that drives batched polling;
//   * the behavioural cell -> case lookup table and the pre-resolved
//     per-case gather plans the stream-fed tops emit from (fill_tuple);
//   * DRAM word -> cell assembly into the stream window (feed_window);
//   * the write-back of result cells: the F = 1 direct write and the F > 1
//     staged drain (post_result_cell, drain_result_field,
//     write_back_step), which report "cell retired" so every top keeps its
//     own instance transition;
//   * the ledger charges of the F > 1 in_* / wb_* staging registers.
// Helpers templated on kSingleField compile the F = 1 hot path without the
// field loops and without touching the (then absent) staging registers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/word.hpp"
#include "grid/zones.hpp"
#include "mem/dram.hpp"
#include "model/planner.hpp"
#include "obs/metrics.hpp"
#include "rtl/kernel_pipeline.hpp"
#include "rtl/static_buffer.hpp"
#include "rtl/stream_buffer.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {

/// Word offset of the DRAM region work-instance `instance` reads: instances
/// ping-pong between two regions of `words` words each, so instance i reads
/// region_base(i), writes region_base(i + 1), and after n instances the
/// result sits at region_base(n).
inline std::uint64_t region_base(std::uint64_t instance,
                                 std::size_t words) noexcept {
  return instance % 2 == 0 ? 0 : words;
}

/// Base of the three tops: the memory fence between work-instances.
class TopModule : public sim::Module {
 protected:
  /// The next instance reads the region the writes are still draining
  /// into, so it may start only once the write channel and the DRAM are
  /// idle. Otherwise sleep until the first cycle the fence can pass:
  /// min_cycles_to_idle is a sound lower bound (same argument as
  /// run_until_done), so the re-check never overshoots, and write drains
  /// also wake the top early through its write_req producer subscription.
  bool fence_passed(mem::DramModel& dram) {
    if (dram.write_req().empty() && dram.idle()) return true;
    sleep_for(dram.min_cycles_to_idle());
    return false;
  }
};

/// Sound lower bound on cycles until a top's done() can become true, used
/// by Simulator::run_until_done. All three tops share the same argument:
/// at most one write-back retires per cycle, Done is entered together with
/// the final one, and `wb_count` resets per instance — so the outstanding
/// write-back count across all remaining work-instances
/// (`remaining_instances * cells - clamped(wb_count)`) can never be
/// undershot. Warm-up or fence cycles only add to it.
inline std::uint64_t outstanding_writeback_bound(
    std::uint64_t instances_total, std::uint64_t instances_done,
    std::uint64_t cells, std::uint64_t wb_count) noexcept {
  const std::uint64_t remaining = (instances_total - instances_done) * cells;
  const std::uint64_t written = wb_count < cells ? wb_count : cells;
  return remaining - written;
}

/// Flatten a CaseMap into a cell-indexed table (slice-major stream order).
/// case_of() resolves zones with a per-axis walk — far too slow to repeat
/// for every cell touch of every cycle. Behavioural lookup only: charges
/// nothing to the ledger. Tops build it lazily on their first eval so
/// elaborate-only flows (Table I's 1024x1024 rows) never pay O(cells).
inline std::vector<std::uint32_t> build_case_table(const grid::CaseMap& cases,
                                                   std::size_t height,
                                                   std::size_t width,
                                                   std::size_t depth = 1) {
  std::vector<std::uint32_t> table;
  table.reserve(height * width * depth);
  for (std::size_t s = 0; s < depth; ++s)
    for (std::size_t r = 0; r < height; ++r)
      for (std::size_t c = 0; c < width; ++c)
        table.push_back(static_cast<std::uint32_t>(cases.case_of(s, r, c)));
  return table;
}

/// One tuple element of one stencil case, pre-resolved at table-build time
/// (window age -> register slot, static index -> bank pointer) so the
/// per-cycle gather is a tight switch with no map lookups.
struct EmitOp {
  enum class Kind : std::uint8_t { Window, Static, Constant, Skip };
  Kind kind = Kind::Skip;
  std::uint32_t slot = 0;     // Window: stream-buffer register slot
  std::uint32_t replica = 0;  // Static: read-port replica
  StaticBufferBank* bank = nullptr;
  word_t constant = 0;
};

/// One static-buffer pre-issue of one case (SmacheTop FSM-2c). Cases
/// without static sources (the grid interior) have an empty list and skip
/// the pre-issue loop entirely.
struct StaticIssue {
  StaticBufferBank* bank = nullptr;
  std::uint32_t replica = 0;
  std::int64_t col_shift = 0;
};

struct CasePlan {
  std::vector<EmitOp> ops;
  std::vector<StaticIssue> statics;
};

/// Pre-resolve every case's gather sources against a stream buffer's
/// register layout. `statics` is null for designs whose plans cannot
/// contain static sources (the cascade — enforced here); all stage windows
/// of a cascade share one layout, so one table serves all.
inline std::vector<CasePlan> build_case_plans(const model::BufferPlan& plan,
                                              const StreamBuffer& window,
                                              StaticBufferSet* statics) {
  std::vector<CasePlan> plans(plan.cases().case_count());
  for (std::size_t id = 0; id < plans.size(); ++id) {
    CasePlan& cp = plans[id];
    for (const model::GatherSource& g : plan.gather(id)) {
      EmitOp op;
      switch (g.kind) {
        case model::SourceKind::Window:
          op.kind = EmitOp::Kind::Window;
          op.slot =
              static_cast<std::uint32_t>(window.slot_of_age(g.window_age));
          break;
        case model::SourceKind::Static:
          SMACHE_ASSERT_MSG(statics != nullptr,
                            "this design's plans never contain static "
                            "sources");
          op.kind = EmitOp::Kind::Static;
          op.bank = &statics->bank(g.static_index);
          op.replica = static_cast<std::uint32_t>(g.replica);
          cp.statics.push_back({op.bank, op.replica, g.col_shift});
          break;
        case model::SourceKind::Constant:
          op.kind = EmitOp::Kind::Constant;
          op.constant = g.constant;
          break;
        case model::SourceKind::Skip:
          op.kind = EmitOp::Kind::Skip;
          break;
      }
      cp.ops.push_back(op);
    }
  }
  return plans;
}

/// Fill the kernel input tuple of `cell` from its case plan. Tap-major
/// layout: tap j's F fields land at elems[j*F .. j*F+F). A window slot
/// reads the tapped cell's F adjacent words (see StreamBuffer::tap_slot);
/// static reads were issued cell-wide, so every field bank's rdata is
/// live; constants and skips replicate across the cell's fields. Written
/// in place in the channel's staging slot: the consumer reads exactly
/// elems[0..count), all of which is written here.
template <bool kSingleField>
inline void fill_tuple(TupleMsg& msg, std::uint64_t cell, const CasePlan& cp,
                       const StreamBuffer& window, std::size_t fields) {
  const std::size_t F = kSingleField ? 1 : fields;
  msg.index = cell;
  msg.count = static_cast<std::uint32_t>(cp.ops.size() * F);
  for (std::size_t j = 0; j < cp.ops.size(); ++j) {
    const EmitOp& op = cp.ops[j];
    grid::TupleElem* e = msg.elems.data() + j * F;
    switch (op.kind) {
      case EmitOp::Kind::Window: {
        const word_t* c = window.tap_slot(op.slot);
        for (std::size_t f = 0; f < F; ++f)
          e[f] = grid::TupleElem{c[f], true};
        break;
      }
      case EmitOp::Kind::Static:
        for (std::size_t f = 0; f < F; ++f)
          e[f] = grid::TupleElem{op.bank->rdata(op.replica, f), true};
        break;
      case EmitOp::Kind::Constant:
        for (std::size_t f = 0; f < F; ++f)
          e[f] = grid::TupleElem{op.constant, true};
        break;
      case EmitOp::Kind::Skip:
        for (std::size_t f = 0; f < F; ++f) e[f] = grid::TupleElem{0, false};
        break;
    }
  }
}

/// The all-zero cell shifted into a window past the grid's last cell.
inline constexpr word_t kZeroCell[kMaxFields] = {};

/// Feed a stream window one DRAM word (the stage-0 gather). The window
/// shifts whole cells: an F-word cell's words arrive one per cycle and stage
/// in the `in` group's in_fill/in_cell registers until the F-th completes
/// the cell, which shifts on that word's arrival cycle; an F = 1 word is the
/// cell and shifts the cycle it arrives. Returns true when a cell shifted
/// in; counts `dram_wait` when no word is ready and `staging` on the F-1
/// cycles a cell is still filling.
template <bool kSingleField, typename InGroup>
inline bool feed_window(mem::DramModel& dram, InGroup* in, std::size_t fields,
                        StreamBuffer& window, obs::MetricsRegistry& mreg,
                        obs::MetricsRegistry::Slot dram_wait,
                        obs::MetricsRegistry::Slot staging, bool& did_work) {
  if (!dram.read_data().can_pop()) {
    mreg.count(dram_wait);
    return false;
  }
  const word_t v = dram.read_data().pop();
  did_work = true;
  if constexpr (kSingleField) {
    window.shift_cell(&v);
    return true;
  } else {
    const auto& q = in->q();
    const std::uint32_t fill = q.in_fill;
    if (fill + 1 != fields) {
      in->d().in_cell[fill] = v;
      in->d().in_fill = fill + 1;
      mreg.count(staging);
      return false;
    }
    word_t cell[kMaxFields];
    for (std::uint32_t f = 0; f < fill; ++f) cell[f] = q.in_cell[f];
    cell[fill] = v;
    window.shift_cell(cell);
    in->d().in_fill = 0;
    return true;
  }
}

/// The write-back stall counters of one top.
struct WritebackSlots {
  obs::MetricsRegistry* mreg;
  obs::MetricsRegistry::Slot backpressure;  // write_req channel full
  obs::MetricsRegistry::Slot drain;         // F>1 cell-drain cycles
};

/// Post field 0 of a finished result cell (the caller has checked
/// write_req().can_push()). A single-word cell retires on the spot — the
/// F = 1 direct write; a wider cell stages fields 1..F-1 in the `wb`
/// group's wb_index/wb_vals/wb_field registers for drain_result_field.
/// Returns true when the cell retired.
template <bool kSingleField, typename WbGroup>
inline bool post_result_cell(mem::DramModel& dram, WbGroup* wb,
                             std::size_t fields, std::uint64_t out_base,
                             std::uint64_t index,
                             const std::array<word_t, kMaxFields>& values) {
  if (kSingleField || fields == 1) {
    dram.write_req().push(mem::DramWriteReq{out_base + index, values[0]});
    return true;
  }
  dram.write_req().push(
      mem::DramWriteReq{out_base + index * fields, values[0]});
  wb->d().wb_index = index;
  wb->d().wb_vals = values;
  wb->d().wb_field = 1;
  return false;
}

/// One cycle of the F > 1 write-back drain: DRAM takes one word per cycle,
/// so the staged cell's fields 1..F-1 go out on the cycles after its pop.
/// Call only while a field is staged (wb_field > 0). Returns true when the
/// cell's last field went out (the cell retired).
template <typename WbGroup>
inline bool drain_result_field(mem::DramModel& dram, WbGroup& wb,
                               std::size_t fields, std::uint64_t out_base,
                               const WritebackSlots& slots, bool& did_work) {
  if (!dram.write_req().can_push()) {
    slots.mreg->count(slots.backpressure);
    return false;
  }
  const auto& q = wb.q();
  dram.write_req().push(mem::DramWriteReq{
      out_base + q.wb_index * fields + q.wb_field, q.wb_vals[q.wb_field]});
  slots.mreg->count(slots.drain);
  did_work = true;
  const bool last = q.wb_field + 1 == fields;
  wb.d().wb_field = last ? 0 : q.wb_field + 1;
  return last;
}

/// One cycle of a stream-fed top's write-back (FSM-3): drain a staged
/// field while one is pending, else pop the next kernel result cell and
/// post it. `on_pop(res)` runs on each pop cycle (SmacheTop's shadow
/// capture, CascadeTop's fill-latency stamp). Returns true when a whole
/// cell retired this cycle.
template <bool kSingleField, typename WbGroup, typename OnPop>
inline bool write_back_step(mem::DramModel& dram,
                            sim::Fifo<ResultMsg>& results, WbGroup* wb,
                            std::size_t fields, std::uint64_t out_base,
                            const WritebackSlots& slots, bool& did_work,
                            OnPop&& on_pop) {
  if (!kSingleField && wb->q().wb_field > 0)
    return drain_result_field(dram, *wb, fields, out_base, slots, did_work);
  if (!results.can_pop()) return false;
  if (!dram.write_req().can_push()) {
    slots.mreg->count(slots.backpressure);
    return false;
  }
  const ResultMsg res = results.pop();
  did_work = true;
  const bool retired = post_result_cell<kSingleField>(
      dram, wb, fields, out_base, res.index, res.values);
  on_pop(res);
  return retired;
}

/// Register width of F-1 staged words (field 0 never stages).
inline std::uint32_t staged_words_bits(std::size_t fields) noexcept {
  return static_cast<std::uint32_t>((fields - 1) * kWordBits);
}

/// Ledger charges of the F > 1 gather staging (in_fill, in_cell), appended
/// under `prefix` in declaration order. F = 1 tops hold none.
template <typename Charges>
inline void append_in_charges(Charges& charges, const std::string& prefix,
                              std::size_t fields) {
  charges.push_back({prefix + "/in_fill", smache::count_bits(fields)});
  charges.push_back({prefix + "/in_cell", staged_words_bits(fields)});
}

/// Ledger charges of the F > 1 write-back staging (wb_field, wb_index,
/// wb_vals), appended under `prefix` in declaration order.
template <typename Charges>
inline void append_wb_charges(Charges& charges, const std::string& prefix,
                              std::size_t fields, std::size_t cells) {
  charges.push_back({prefix + "/wb_field", smache::count_bits(fields)});
  charges.push_back({prefix + "/wb_index", smache::count_bits(cells)});
  charges.push_back({prefix + "/wb_vals", staged_words_bits(fields)});
}

}  // namespace smache::rtl
