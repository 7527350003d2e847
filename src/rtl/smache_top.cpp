#include "rtl/smache_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

std::vector<sim::RegCharge>
SmacheTop::ctrl_charges(const std::string& path,
                        const model::BufferPlan& plan, std::size_t steps,
                        std::size_t cells, std::size_t fields) {
  // For F = 1 this list is byte-identical to the original charge set (the
  // warm_idx width is count_bits(width * 1)); F > 1 widens warm_idx to the
  // row's word count. The gather/write-back staging registers F > 1 also
  // needs live in their own state element (CellStage, constructed right
  // after ctrl_) so the F = 1 commit stays the original width.
  std::vector<sim::RegCharge> charges = {
      {path + "/ctrl/instance", smache::count_bits(steps)},
      {path + "/ctrl/shifts", smache::count_bits(cells + plan.window_len())},
      {path + "/ctrl/emit_next", smache::count_bits(cells)},
      {path + "/ctrl/rdata_center", smache::count_bits(cells) + 1},
      {path + "/ctrl/req_issued", 1},
      {path + "/ctrl/wb_count", smache::count_bits(cells)},
      {path + "/ctrl/warm_bank",
       smache::count_bits(plan.static_buffers().size() + 1)},
      {path + "/ctrl/warm_idx", smache::count_bits(plan.width() * fields)},
      {path + "/ctrl/warm_req", 1}};
  return charges;
}

SmacheTop::SmacheTop(sim::Simulator& sim, const std::string& path,
                     const model::BufferPlan& plan,
                     const KernelSpec& kernel_spec, mem::DramModel& dram,
                     std::size_t steps)
    : plan_(plan),
      dram_(dram),
      steps_(steps),
      cells_(plan.cells()),
      fields_(kernel_spec.fields()),
      words_(cells_ * kernel_spec.fields()),
      center_(plan.center_age()),
      sim_(sim),
      window_(sim, path, plan, kernel_spec.fields()),
      statics_(sim, path, plan, kernel_spec.fields()),
      // The kernel sits OUTSIDE the Smache module (Figure 1b), so its
      // resources are charged under their own hierarchy root.
      kernel_(sim, "kernel", kernel_spec, plan.shape().size(), cells_),
      top_(sim, path + "/ctrl/top_fsm",
           plan.needs_warmup() ? Top::Warmup : Top::Run, 4),
      ctrl_(sim, Ctrl{},
            ctrl_charges(path, plan, steps, cells_, kernel_spec.fields())),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)),
      s_kernel_bp_(mreg_->slot(path, "/stall/kernel_backpressure",
                               obs::MetricKind::Counter)),
      s_wb_bp_(mreg_->slot(path, "/stall/writeback_backpressure",
                           obs::MetricKind::Counter)),
      s_gather_staging_(mreg_->slot(path, "/gather_staging_cycles",
                                    obs::MetricKind::Counter)),
      s_wb_drain_(mreg_->slot(path, "/writeback_drain_cycles",
                              obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(steps >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE_MSG(dram.size_words() >= 2 * words_,
                     "DRAM must hold two grid regions (ping-pong)");
  if (fields_ > 1) {
    std::vector<sim::RegCharge> charges;
    append_in_charges(charges, path + "/ctrl", fields_);
    append_wb_charges(charges, path + "/ctrl", fields_, cells_);
    stage_ =
        std::make_unique<sim::RegGroup<CellStage>>(sim, CellStage{}, charges);
  }
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b)
    warm_order_.push_back(b);
  // Activity gating: these channel commits are the only external events
  // that can unblock a starved Run/Warmup state (data arriving, space
  // freeing), so a quiescent controller sleeps on them.
  dram_.read_req().set_producer(this);
  dram_.read_data().set_consumer(this);
  dram_.write_req().set_producer(this);
  kernel_.in().set_producer(this);
  kernel_.out().set_consumer(this);
  sim.add_module(this);
}

void SmacheTop::build_cell_tables() {
  case_of_cell_ = build_case_table(plan_.cases(), plan_.height(),
                                   plan_.width(), plan_.depth());
  row_of_cell_.reserve(cells_);
  col_of_cell_.reserve(cells_);
  // row_of_cell_ holds GLOBAL rows (s * height + r): static banks, the
  // capture path and the DRAM layout all speak the slice-major stream.
  for (std::size_t s = 0; s < plan_.depth(); ++s) {
    for (std::size_t r = 0; r < plan_.height(); ++r) {
      for (std::size_t c = 0; c < plan_.width(); ++c) {
        row_of_cell_.push_back(
            static_cast<std::uint32_t>(s * plan_.height() + r));
        col_of_cell_.push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  // Pre-resolve every case's gather sources: window ages to register
  // slots, static indices to bank pointers. The per-cycle emit loop then
  // touches no plan/map structures at all, and interior cases skip the
  // static pre-issue loop outright.
  case_plans_ = build_case_plans(plan_, window_, &statics_);
  capture_row_.assign(plan_.global_rows(), 0);
  for (std::size_t b = 0; b < plan_.static_buffers().size(); ++b) {
    const auto& spec = plan_.static_buffers()[b];
    if (spec.write_through) capture_row_[spec.grid_row] = 1;
  }
}

bool SmacheTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t SmacheTop::output_base() const noexcept {
  return region_base(steps_, words_);
}

void SmacheTop::eval() {
  if (case_of_cell_.empty()) build_cell_tables();
  switch (top_.state()) {
    case Top::Warmup: eval_warmup(); break;
    case Top::Run:
      // The staging registers exist exactly for multi-word cells.
      stage_ ? eval_run<false>() : eval_run<true>();
      break;
    case Top::Swap: eval_swap(); break;
    case Top::Done:
      // Terminal: nothing can ever change again.
      sleep();
      break;
  }
}

// ---------------------------------------------------------------------------
// FSM-1: warm-up prefetch of static buffers.
// ---------------------------------------------------------------------------
void SmacheTop::eval_warmup() {
  const Ctrl& c = ctrl_.q();
  if (c.warm_bank >= warm_order_.size()) {
    warmup_end_ = sim_.now();
    top_.go(Top::Run);
    return;
  }
  StaticBufferBank& bank = statics_.bank(warm_order_[c.warm_bank]);
  // One row = width cells = width * F DRAM words; active_write is
  // word-indexed, so the burst streams straight into the field banks.
  const std::size_t w = plan_.width() * fields_;
  if (!c.warm_req) {
    if (dram_.read_req().can_push()) {
      dram_.read_req().push(mem::DramReadReq{
          region_base(c.instance, words_) + bank.spec().grid_row * w,
          static_cast<std::uint32_t>(w)});
      ctrl_.d().warm_req = true;
    } else {
      mreg_->count(s_req_bp_);
      sleep();  // wake: read_req pop commit frees a request slot
    }
    return;
  }
  if (dram_.read_data().can_pop()) {
    const word_t v = dram_.read_data().pop();
    bank.active_write(c.warm_idx, v);
    if (c.warm_idx + 1 == w) {
      ctrl_.d().warm_idx = 0;
      ctrl_.d().warm_req = false;
      ctrl_.d().warm_bank = c.warm_bank + 1;
    } else {
      ctrl_.d().warm_idx = c.warm_idx + 1;
    }
  } else {
    mreg_->count(s_dram_wait_);
    sleep();  // wake: read_data push commit delivers the next burst word
  }
}

// ---------------------------------------------------------------------------
// FSM-2 (gather) + FSM-3 (write-back), concurrent within Run.
// ---------------------------------------------------------------------------
void SmacheTop::issue_static_reads(std::uint64_t cell) {
  const CasePlan& cp = case_plans_[case_of_cell_[cell]];
  if (cp.statics.empty()) return;  // interior case: nothing to pre-issue
  const std::size_t w = plan_.width();
  const std::size_t c = col_of_cell_[cell];
  for (const StaticIssue& s : cp.statics) {
    const auto idx = static_cast<std::int64_t>(c) + s.col_shift;
    SMACHE_ASSERT(idx >= 0 && idx < static_cast<std::int64_t>(w));
    s.bank->read(s.replica, static_cast<std::size_t>(idx));
  }
}

template <bool kSingleField>
void SmacheTop::eval_run() {
  const Ctrl& c = ctrl_.q();
  const std::uint64_t n = c.shifts;
  const std::uint64_t emit_i = c.emit_next;
  const std::size_t center = center_;
  bool did_work = false;

  // -- FSM-2a: whole-grid burst request, once per instance --
  if (!c.req_issued) {
    if (dram_.read_req().can_push()) {
      dram_.read_req().push(mem::DramReadReq{
          region_base(c.instance, words_),
          static_cast<std::uint32_t>(words_)});
      ctrl_.d().req_issued = true;
      did_work = true;
    } else {
      mreg_->count(s_req_bp_);
    }
  }

  // -- FSM-2b: tuple emission --
  bool emitting = false;
  if (emit_i < cells_ && n >= emit_i + center &&
      c.rdata_center == static_cast<std::int64_t>(emit_i)) {
    if (kernel_.in().can_push()) {
      fill_tuple<kSingleField>(kernel_.in().push_slot(), emit_i,
                               case_plans_[case_of_cell_[emit_i]], window_,
                               fields_);
      ctrl_.d().emit_next = emit_i + 1;
      emitting = true;
      did_work = true;
    } else {
      mreg_->count(s_kernel_bp_);
    }
  }

  // -- FSM-2c: pre-issue static reads for the next centre. Re-issues for
  // a centre the token already points at are skipped: BRAM read data holds
  // between issues and the statics' active copies are not written during
  // Run, so re-latching would republish identical values --
  const std::uint64_t next_center = emitting ? emit_i + 1 : emit_i;
  if (next_center < cells_ &&
      c.rdata_center != static_cast<std::int64_t>(next_center)) {
    issue_static_reads(next_center);
    ctrl_.d().rdata_center = static_cast<std::int64_t>(next_center);
    did_work = true;
  }

  // -- FSM-2d: window shift, one whole CELL per shift (see feed_window);
  // past the last cell, zero cells flush the window --
  const std::uint64_t emit_eff = emitting ? emit_i + 1 : emit_i;
  const bool more_shifts = n < cells_ - 1 + center;
  const bool window_room = n < emit_eff + center;
  if (more_shifts && window_room) {
    if (n >= cells_) {
      window_.shift_cell(kZeroCell);
      ctrl_.d().shifts = n + 1;
      did_work = true;
    } else if (feed_window<kSingleField>(dram_, stage_.get(), fields_,
                                         window_, *mreg_, s_dram_wait_,
                                         s_gather_staging_, did_work)) {
      ctrl_.d().shifts = n + 1;
    }
  }

  // -- FSM-3: write-back + shadow capture. The capture path stores the
  // whole result cell on its pop cycle (on-chip banks are word-parallel);
  // wb_count counts completed cells. --
  const bool retired = write_back_step<kSingleField>(
      dram_, kernel_.out(), stage_.get(), fields_,
      region_base(c.instance + 1, words_),
      WritebackSlots{mreg_, s_wb_bp_, s_wb_drain_}, did_work,
      [&](const ResultMsg& res) {
        const std::uint32_t row = row_of_cell_[res.index];
        if (!capture_row_[row]) return;
        if constexpr (kSingleField)
          statics_.capture_output(row, col_of_cell_[res.index],
                                  res.values[0]);
        else
          statics_.capture_output_cell(row, col_of_cell_[res.index],
                                       res.values.data());
      });
  if (retired) {
    ctrl_.d().wb_count = c.wb_count + 1;
    if (c.wb_count + 1 == cells_)
      top_.go(c.instance + 1 == steps_ ? Top::Done : Top::Swap);
  }

  // Starved: every blocker above is an external channel condition (data
  // not yet delivered, space not yet freed), and each is subscribed to in
  // the constructor, so the controller can sleep until one commits.
  if (!did_work) sleep();
}

// ---------------------------------------------------------------------------
// Instance boundary: drain writes, swap buffers and regions.
// ---------------------------------------------------------------------------
void SmacheTop::eval_swap() {
  if (!fence_passed(dram_)) return;
  const Ctrl& c = ctrl_.q();
  statics_.swap_all();
  Ctrl& d = ctrl_.d();
  d.instance = c.instance + 1;
  d.shifts = 0;
  d.emit_next = 0;
  d.rdata_center = -1;
  d.req_issued = false;
  d.wb_count = 0;
  if (stage_) {
    stage_->d().in_fill = 0;
    stage_->d().wb_field = 0;
  }
  top_.go(Top::Run);
}

}  // namespace smache::rtl
