#include "rtl/baseline_top.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace smache::rtl {

BaselineTop::BaselineTop(sim::Simulator& sim, const std::string& path,
                         std::size_t height, std::size_t width,
                         const grid::StencilShape& shape,
                         const grid::BoundarySpec& bc,
                         const KernelSpec& kernel_spec, mem::DramModel& dram,
                         std::size_t steps, std::size_t depth)
    : height_(height),
      width_(width),
      depth_(depth),
      cells_(height * width * depth),
      fields_(kernel_spec.fields()),
      words_(height * width * depth * kernel_spec.fields()),
      steps_(steps),
      shape_(shape),
      cases_(height, width, depth, shape),
      kernel_spec_(kernel_spec),
      dram_(dram),
      top_(sim, path + "/ctrl/top_fsm", Top::Run, 3),
      ctrl_(sim, Ctrl{},
            [&] {
              // col_elem counts tuple WORDS (taps * F); for F = 1 the list
              // is byte-identical to the original. F > 1 appends the
              // write-back staging a multi-word drain holds.
              const std::size_t f = kernel_spec.fields();
              std::vector<sim::RegCharge> charges = {
                  {path + "/ctrl/instance", smache::count_bits(steps)},
                  {path + "/ctrl/req_cell", smache::count_bits(cells_)},
                  {path + "/ctrl/req_elem", smache::count_bits(shape.size())},
                  {path + "/ctrl/col_cell", smache::count_bits(cells_)},
                  {path + "/ctrl/col_elem",
                   smache::count_bits(shape.size() * f)},
                  {path + "/ctrl/wb_count", smache::count_bits(cells_)}};
              if (f > 1) append_wb_charges(charges, path + "/ctrl", f, cells_);
              return charges;
            }()),
      tuple_regs_(sim, path + "/datapath/tuple_regs",
                  shape.size() * kernel_spec.fields(), 0, kWordBits),
      mreg_(&sim.metrics()),
      s_req_bp_(mreg_->slot(path, "/stall/request_backpressure",
                            obs::MetricKind::Counter)),
      s_dram_wait_(
          mreg_->slot(path, "/stall/dram_wait", obs::MetricKind::Counter)),
      s_wb_bp_(mreg_->slot(path, "/stall/writeback_backpressure",
                           obs::MetricKind::Counter)),
      s_wb_drain_(mreg_->slot(path, "/writeback_drain_cycles",
                              obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(steps >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE(dram.size_words() >= 2 * words_);
  scratch_.resize(shape.size() * fields_);
  // Activity gating: the requester stalls only on request-channel space,
  // the collector only on data arrival / write-channel space — all channel
  // commits we can subscribe to.
  dram.read_req().set_producer(this);
  dram.read_data().set_consumer(this);
  dram.write_req().set_producer(this);

  // Build the per-case source table (the baseline's address/mask logic).
  const std::size_t n_cases = cases_.case_count();
  sources_.assign(n_cases, std::vector<Source>(shape.size()));
  for (std::size_t zs = 0; zs < cases_.slices().count(); ++zs) {
  for (std::size_t zr = 0; zr < cases_.rows().count(); ++zr) {
    for (std::size_t zc = 0; zc < cases_.cols().count(); ++zc) {
      const std::size_t id = cases_.case_id(zs, zr, zc);
      const std::size_t s_rep = cases_.slices().representative(zs);
      const std::size_t r_rep = cases_.rows().representative(zr);
      const std::size_t c_rep = cases_.cols().representative(zc);
      for (std::size_t j = 0; j < shape.size(); ++j) {
        const grid::Offset2 o = shape.offsets()[j];
        const grid::Resolved res =
            grid::resolve(s_rep, r_rep, c_rep, o.ds, o.dr, o.dc, depth,
                          height, width, bc);
        Source& s = sources_[id][j];
        switch (res.kind) {
          case grid::Resolved::Kind::Missing:
            // Dummy read of the centre; masked out of the compute.
            s.is_data = false;
            break;
          case grid::Resolved::Kind::Constant:
            s.is_data = false;
            s.is_constant = true;
            s.constant = res.constant;
            break;
          case grid::Resolved::Kind::Cell:
            s.is_data = true;
            s.row_shift = static_cast<std::int64_t>(res.r) -
                          static_cast<std::int64_t>(r_rep);
            s.col_shift = static_cast<std::int64_t>(res.c) -
                          static_cast<std::int64_t>(c_rep);
            s.slice_shift = static_cast<std::int64_t>(res.s) -
                            static_cast<std::int64_t>(s_rep);
            s.lin_shift = (s.slice_shift * static_cast<std::int64_t>(height) +
                           s.row_shift) *
                              static_cast<std::int64_t>(width) +
                          s.col_shift;
            break;
        }
      }
    }
  }
  }
  sim.add_module(this);
}

bool BaselineTop::done() const noexcept { return top_.is(Top::Done); }

std::uint64_t BaselineTop::output_base() const noexcept {
  return region_base(steps_, words_);
}

std::uint64_t BaselineTop::element_addr(std::uint64_t cell,
                                        const Source& s) const {
  const std::uint64_t in_base = region_base(ctrl_.q().instance, words_);
  // Dummy read of the centre cell's words.
  if (!s.is_data) return in_base + cell * fields_;
  // (r + row_shift) * W + (c + col_shift) == cell + lin_shift; the zone
  // resolution that produced the shifts guarantees the target stays inside
  // the grid for every cell of the case. Cell addresses scale by F words.
  const std::int64_t addr = static_cast<std::int64_t>(cell) + s.lin_shift;
  SMACHE_ASSERT(addr >= 0 &&
                addr < static_cast<std::int64_t>(cells_));
  return in_base + static_cast<std::uint64_t>(addr) * fields_;
}

void BaselineTop::eval_run() {
  const std::size_t tuple = shape_.size();
  const std::size_t tuple_words = tuple * fields_;
  const Ctrl& c = ctrl_.q();
  bool did_work = false;

  // -- requester: one read request per tuple element per cycle (an F-word
  //    burst: the whole cell of the addressed grid point) --
  if (c.req_cell < cells_) {
    if (dram_.read_req().can_push()) {
      const std::size_t case_id = case_of_cell_[c.req_cell];
      const Source& s = sources_[case_id][c.req_elem];
      dram_.read_req().push(
          mem::DramReadReq{element_addr(c.req_cell, s),
                           static_cast<std::uint32_t>(fields_)});
      if (c.req_elem + 1 == tuple) {
        ctrl_.d().req_elem = 0;
        ctrl_.d().req_cell = c.req_cell + 1;
      } else {
        ctrl_.d().req_elem = c.req_elem + 1;
      }
      did_work = true;
    } else {
      mreg_->count(s_req_bp_);
    }
  }

  // -- collector: one data word per cycle; kernel + write on the last.
  //    An F > 1 result cell drains (one word per cycle) before further
  //    tuple words are collected; field 0 went out on the pop cycle. --
  const std::uint64_t out_base = region_base(c.instance + 1, words_);
  bool retired = false;
  if (c.wb_field > 0) {
    retired = drain_result_field(dram_, ctrl_, fields_, out_base,
                                 WritebackSlots{mreg_, s_wb_bp_, s_wb_drain_},
                                 did_work);
  } else if (c.col_cell < cells_ && !dram_.read_data().can_pop()) {
    mreg_->count(s_dram_wait_);
  } else if (c.col_cell < cells_) {
    const bool last = c.col_elem + 1 == tuple_words;
    // On the final word the write must be postable in the same cycle.
    if (!last || dram_.write_req().can_push()) {
      const word_t v = dram_.read_data().pop();
      did_work = true;
      if (!last) {
        tuple_regs_.d(c.col_elem, v);
        ctrl_.d().col_elem = c.col_elem + 1;
      } else {
        const std::uint64_t cell = c.col_cell;
        const std::size_t case_id = case_of_cell_[cell];
        for (std::size_t j = 0; j < tuple; ++j) {
          const Source& s = sources_[case_id][j];
          for (std::size_t f = 0; f < fields_; ++f) {
            const std::size_t w = j * fields_ + f;
            const word_t raw = w + 1 == tuple_words ? v : tuple_regs_.q(w);
            if (s.is_data) scratch_[w] = grid::TupleElem{raw, true};
            else if (s.is_constant)
              scratch_[w] = grid::TupleElem{s.constant, true};
            else
              scratch_[w] = grid::TupleElem{0, false};
          }
        }
        std::array<word_t, kMaxFields> out{};
        apply_kernel_cells(kernel_spec_, scratch_, fields_, out.data());
        retired = post_result_cell<false>(dram_, &ctrl_, fields_, out_base,
                                          cell, out);
        ctrl_.d().col_elem = 0;
        ctrl_.d().col_cell = cell + 1;
      }
    } else {
      mreg_->count(s_wb_bp_);
    }
  }
  if (retired) {
    ctrl_.d().wb_count = c.wb_count + 1;
    if (c.wb_count + 1 == cells_)
      top_.go(c.instance + 1 == steps_ ? Top::Done : Top::Gap);
  }

  // Starved: both FSMs are blocked on channel conditions subscribed to in
  // the constructor (request/write space frees, data arrives).
  if (!did_work) sleep();
}

void BaselineTop::eval() {
  if (case_of_cell_.empty())
    case_of_cell_ = build_case_table(cases_, height_, width_, depth_);
  switch (top_.state()) {
    case Top::Run:
      eval_run();
      break;
    case Top::Gap:
      if (fence_passed(dram_)) {
        const Ctrl& c = ctrl_.q();
        Ctrl& d = ctrl_.d();
        d.instance = c.instance + 1;
        d.req_cell = 0;
        d.req_elem = 0;
        d.col_cell = 0;
        d.col_elem = 0;
        d.wb_count = 0;
        d.wb_field = 0;
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
