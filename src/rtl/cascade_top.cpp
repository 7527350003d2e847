#include "rtl/cascade_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

CascadeTop::CascadeTop(sim::Simulator& sim, const std::string& path,
                       const model::BufferPlan& plan,
                       const KernelSpec& kernel_spec, mem::DramModel& dram,
                       std::size_t depth, std::size_t passes)
    : plan_(plan),
      dram_(dram),
      cells_(plan.cells()),
      fields_(kernel_spec.fields()),
      words_(cells_ * kernel_spec.fields()),
      passes_(passes),
      sim_(sim),
      top_(sim, path + "/ctrl/top_fsm", Top::Run, 3),
      ctrl_(sim, Ctrl{},
            [&] {
              // F = 1 keeps the original charge list byte-identical; F > 1
              // appends the write-back staging a multi-word drain holds.
              std::vector<sim::RegCharge> charges = {
                  {path + "/ctrl/pass", smache::count_bits(passes)},
                  {path + "/ctrl/req_issued", 1},
                  {path + "/ctrl/wb_count", smache::count_bits(cells_)}};
              if (fields_ > 1)
                append_wb_charges(charges, path + "/ctrl", fields_, cells_);
              return charges;
            }()),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)),
      s_kernel_bp_(mreg_->slot(path, "/stall/kernel_backpressure",
                               obs::MetricKind::Counter)),
      s_interstage_bp_(mreg_->slot(path, "/stall/interstage_backpressure",
                                   obs::MetricKind::Counter)),
      s_wb_bp_(mreg_->slot(path, "/stall/writeback_backpressure",
                           obs::MetricKind::Counter)),
      s_gather_staging_(mreg_->slot(path, "/gather_staging_cycles",
                                    obs::MetricKind::Counter)),
      s_wb_drain_(mreg_->slot(path, "/writeback_drain_cycles",
                              obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(depth >= 1 && passes >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE_MSG(plan.static_buffers().empty(),
                     "cascading requires boundaries whose tuples resolve "
                     "in-stream (open/mirror/constant); periodic wraps need "
                     "SmacheTop's double-buffered static buffers");
  SMACHE_REQUIRE(dram.size_words() >= 2 * words_);

  for (std::size_t k = 0; k < depth; ++k) {
    const std::string stage_id = "stage" + std::to_string(k);
    Stage st;
    // Windows charge under <path>/stream/... (entries accumulate across
    // stages, so the ledger's stream totals cover the whole cascade);
    // kernels sit outside the module root, as in SmacheTop.
    st.window = std::make_unique<StreamBuffer>(sim, path, plan, fields_);
    st.kernel = std::make_unique<KernelPipeline>(
        sim, "kernel/" + stage_id, kernel_spec, plan.shape().size(),
        cells_);
    {
      std::vector<sim::RegCharge> scharges = {
          {path + "/ctrl/" + stage_id + "/shifts",
           smache::count_bits(cells_ + plan.window_len())},
          {path + "/ctrl/" + stage_id + "/emit_next",
           smache::count_bits(cells_)}};
      // Stage 0 assembles cells from the DRAM word stream; later stages
      // receive whole cells on the inter-stage channel and stage nothing.
      if (fields_ > 1 && k == 0)
        append_in_charges(scharges, path + "/ctrl/" + stage_id, fields_);
      st.ctrl = std::make_unique<sim::RegGroup<StageCtrl>>(sim, StageCtrl{},
                                                           scharges);
    }
    st.input = k == 0 ? nullptr
                      : std::make_unique<sim::Fifo<CellMsg>>(
                            sim, path + "/ctrl/" + stage_id + "/input", 4,
                            static_cast<std::uint32_t>(kWordBits * fields_));
    // Activity gating: every stage's channel events can unblock the single
    // controller module, so all stage channels wake it.
    st.kernel->in().set_producer(this);
    st.kernel->out().set_consumer(this);
    if (st.input) {
      st.input->set_consumer(this);
      st.input->set_producer(this);
    }
    stages_.push_back(std::move(st));
  }
  dram_.read_req().set_producer(this);
  dram_.read_data().set_consumer(this);
  dram_.write_req().set_producer(this);
  sim.add_module(this);
}

bool CascadeTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t CascadeTop::output_base() const noexcept {
  return region_base(passes_, words_);
}

bool CascadeTop::eval_stage(std::size_t k) {
  Stage& st = stages_[k];
  const StageCtrl& sc = st.ctrl->q();
  const std::uint64_t n = sc.shifts;
  const std::uint64_t emit_i = sc.emit_next;
  const std::size_t center = plan_.center_age();
  bool did_work = false;

  // -- tuple emission into this stage's kernel --
  bool emitting = false;
  if (emit_i < cells_ && n >= emit_i + center) {
    if (!st.kernel->in().can_push()) {
      mreg_->count(s_kernel_bp_);
    } else {
      fill_tuple<false>(st.kernel->in().push_slot(), emit_i,
                        case_plans_[case_of_cell_[emit_i]], *st.window,
                        fields_);
      st.ctrl->d().emit_next = emit_i + 1;
      emitting = true;
      did_work = true;
    }
  }

  // -- window shift: stage 0 from the DRAM word stream (see feed_window),
  // later stages whole cells from the inter-stage channel; past the last
  // cell, zero cells flush the window --
  const std::uint64_t emit_eff = emitting ? emit_i + 1 : emit_i;
  const bool more_shifts = n < cells_ - 1 + center;
  const bool window_room = n < emit_eff + center;
  if (more_shifts && window_room) {
    if (n >= cells_) {
      st.window->shift_cell(kZeroCell);
      st.ctrl->d().shifts = n + 1;
      did_work = true;
    } else if (k == 0) {
      if (feed_window<false>(dram_, st.ctrl.get(), fields_, *st.window,
                             *mreg_, s_dram_wait_, s_gather_staging_,
                             did_work))
        st.ctrl->d().shifts = n + 1;
    } else if (st.input->can_pop()) {
      st.window->shift_cell(st.input->pop().w.data());
      st.ctrl->d().shifts = n + 1;
      did_work = true;
    } else {
      mreg_->count(s_interstage_bp_);
    }
  }

  // -- drain this stage's kernel into the next stage / DRAM --
  if (k + 1 == stages_.size()) {
    const Ctrl& c = ctrl_.q();
    const bool retired = write_back_step<false>(
        dram_, st.kernel->out(), &ctrl_, fields_,
        region_base(c.pass + 1, words_),
        WritebackSlots{mreg_, s_wb_bp_, s_wb_drain_}, did_work,
        [&](const ResultMsg&) {
          if (warmup_end_ == 0) warmup_end_ = sim_.now();
        });
    if (retired) {
      ctrl_.d().wb_count = c.wb_count + 1;
      if (c.wb_count + 1 == cells_)
        top_.go(c.pass + 1 == passes_ ? Top::Done : Top::Gap);
    }
  } else {
    sim::Fifo<CellMsg>& next_in = *stages_[k + 1].input;
    if (st.kernel->out().can_pop()) {
      if (next_in.can_push()) {
        const ResultMsg res = st.kernel->out().pop();
        next_in.push_slot().w = res.values;
        did_work = true;
      } else {
        mreg_->count(s_interstage_bp_);
      }
    }
  }
  return did_work;
}

void CascadeTop::eval() {
  if (case_of_cell_.empty()) {
    case_of_cell_ = build_case_table(plan_.cases(), plan_.height(),
                                     plan_.width(), plan_.depth());
    // Pre-resolve every case's gather sources (window ages to register
    // slots); the stage windows share one layout, so one table serves all.
    // No statics by construction (enforced in the constructor and again in
    // build_case_plans).
    case_plans_ = build_case_plans(plan_, *stages_.front().window, nullptr);
  }
  switch (top_.state()) {
    case Top::Run: {
      bool did_work = false;
      const Ctrl& c = ctrl_.q();
      if (!c.req_issued) {
        if (dram_.read_req().can_push()) {
          dram_.read_req().push(
              mem::DramReadReq{region_base(c.pass, words_),
                               static_cast<std::uint32_t>(words_)});
          ctrl_.d().req_issued = true;
          did_work = true;
        } else {
          mreg_->count(s_req_bp_);
        }
      }
      for (std::size_t k = 0; k < stages_.size(); ++k)
        did_work |= eval_stage(k);
      // Starved: every stage is blocked on a channel condition subscribed
      // to in the constructor.
      if (!did_work) sleep();
      break;
    }
    case Top::Gap:
      if (fence_passed(dram_)) {
        const Ctrl& c = ctrl_.q();
        Ctrl& d = ctrl_.d();
        d.pass = c.pass + 1;
        d.req_issued = false;
        d.wb_count = 0;
        d.wb_field = 0;
        for (auto& st : stages_) {
          st.ctrl->d().shifts = 0;
          st.ctrl->d().emit_next = 0;
          st.ctrl->d().in_fill = 0;
        }
        top_.go(Top::Run);
      }
      break;
    case Top::Done:
      // Terminal: nothing can ever change again.
      sleep();
      break;
  }
}

}  // namespace smache::rtl
