#include "rtl/kernel_pipeline.hpp"

#include "common/assert.hpp"

namespace smache::rtl {
namespace {

/// One register charge per stage. Stage 0 still holds the tuple-wide
/// partial state; later stages carry a narrowing payload down to one cell
/// (F words, plus the wide partial accumulator in stage 1). F = 1 keeps
/// the original per-stage widths bit-for-bit.
std::vector<sim::RegCharge> stage_charges(const std::string& path,
                                          std::size_t tuple_size,
                                          std::size_t fields,
                                          std::size_t grid_cells,
                                          std::uint32_t latency) {
  const std::uint32_t idx_bits = smache::count_bits(grid_cells);
  const auto f32 = static_cast<std::uint32_t>(fields);
  std::vector<sim::RegCharge> charges;
  for (std::uint32_t s = 0; s < latency; ++s) {
    const std::uint32_t payload_bits =
        s == 0 ? static_cast<std::uint32_t>(tuple_size * fields * 33)
               : (s == 1 ? 64u * f32 : 32u * f32);
    charges.push_back({path + "/stage" + std::to_string(s),
                       payload_bits + idx_bits + 1});
  }
  return charges;
}

}  // namespace

KernelPipeline::KernelPipeline(sim::Simulator& sim, const std::string& path,
                               KernelSpec spec, std::size_t tuple_size,
                               std::size_t grid_cells, std::uint32_t latency)
    : spec_(spec),
      tuple_size_(tuple_size),
      fields_(spec.fields()),
      latency_(latency),
      in_(sim, path + "/in", 2,
          static_cast<std::uint32_t>(tuple_size * spec.fields() * 33 +
                                     smache::count_bits(grid_cells))),
      out_(sim, path + "/out", 2,
           static_cast<std::uint32_t>(32 * spec.fields()) +
               smache::count_bits(grid_cells)),
      pipe_(sim, latency, Stage{},
            stage_charges(path, tuple_size, spec.fields(), grid_cells,
                          latency)),
      mreg_(&sim.metrics()),
      s_out_bp_(mreg_->slot(path, "/stall/out_backpressure",
                            obs::MetricKind::Counter)) {
  SMACHE_REQUIRE(latency >= 1);
  set_obs_name(path);
  SMACHE_REQUIRE(tuple_size >= 1 && tuple_size * fields_ <= kMaxTuple);
  // Activity gating: a push committing on `in` is the only event that can
  // end emptiness; a pop committing on `out` is the only event that can end
  // a full-output freeze.
  in_.set_consumer(this);
  out_.set_producer(this);
  sim.add_module(this);
}

bool KernelPipeline::empty() const noexcept {
  if (!in_.empty() || !out_.empty()) return false;
  for (std::uint32_t s = 0; s < latency_; ++s)
    if (pipe_.q(s).valid) return false;
  return true;
}

void KernelPipeline::eval() {
  // Quiescent: no valid tuple in any stage and nothing to accept. Advancing
  // would only shift bubbles into bubbles — the committed state after such
  // a cycle is bit-identical to not scheduling the writes at all, so sleep
  // until the input channel commits a push.
  if (occupancy_ == 0 && in_.empty()) {
    sleep();
    return;
  }

  // All-or-nothing advance: the pipeline only moves when its tail can
  // retire into the output FIFO (or the tail is a bubble). A freeze is
  // quiescent too — nothing changes until the output channel commits a pop.
  const Stage& tail = pipe_.q(latency_ - 1);
  const bool can_retire = !tail.valid || out_.can_push();
  if (!can_retire) {
    mreg_->count(s_out_bp_);
    sleep();
    return;
  }

  if (tail.valid) {
    ResultMsg& res = out_.push_slot();  // staged in place, no copy
    res.index = tail.index;
    res.values = tail.value;
    --occupancy_;
  }

  // Whole-pipe shift, scheduled as one write and committed as one copy.
  Stage* next = pipe_.d();
  for (std::size_t s = latency_; s-- > 1;) next[s] = pipe_.q(s - 1);

  // Head stage: accept a new tuple if available; the arithmetic result is
  // computed here and carried through the remaining stages (the stage regs
  // charge the bits a real pipeline would hold).
  if (in_.can_pop()) {
    const TupleMsg& msg = in_.front();  // valid until the commit phase
    SMACHE_ASSERT(msg.count <= tuple_size_ * fields_);
    Stage head;
    head.valid = true;
    head.index = msg.index;
    apply_kernel_cells(spec_, TupleView{msg.elems.data(), msg.count},
                       fields_, head.value.data());
    next[0] = head;
    in_.drop();
    ++occupancy_;
  } else {
    next[0] = Stage{};
  }
}

}  // namespace smache::rtl
