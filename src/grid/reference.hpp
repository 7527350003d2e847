// Golden software reference executor. This is the semantic oracle: the
// simulated hardware must produce bit-identical grids.
//
// A stencil over a grid splits into a few boundary cases plus one interior
// case that needs no boundary logic (the paper's Figure 1(a)). The oracle
// follows that split cell by cell. An interior cell, one that every tap
// lands inside on every axis, gathers by direct linear offsets. Every other
// cell resolves each tap through resolve(), independently of the planner's
// and the RTL's case tables. Both kinds of cell write one tuple buffer that
// is reused across cells. The kernel is the caller's; reference_run binds
// it to rtl::apply_kernel_cells, the kernel the hardware pipeline applies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/word.hpp"
#include "grid/boundary.hpp"
#include "grid/grid.hpp"
#include "grid/stencil.hpp"
#include "grid/zones.hpp"

namespace smache::grid {

/// Per-tap specification gather: tap-major tuple of size
/// shape.size() * in.fields(), tuple[t * F + f] = field f of the cell at
/// offset t, every tap resolved through resolve(). Boundary resolution
/// happens once per CELL; validity and the constant halo value replicate
/// across that cell's fields. Invalid elements (open boundary) carry
/// valid = false.
std::vector<TupleElem> gather_cell_tuple(const Grid<word_t>& in,
                                         const StencilShape& shape,
                                         const BoundarySpec& bc,
                                         std::size_t r, std::size_t c);

/// Slice-explicit F-field gather (3D counterpart of gather_cell_tuple).
std::vector<TupleElem> gather_cell_tuple(const Grid<word_t>& in,
                                         const StencilShape& shape,
                                         const BoundarySpec& bc,
                                         std::size_t s, std::size_t r,
                                         std::size_t c);

/// The oracle's gather over one input grid. Produces the same tuple as
/// gather_cell_tuple for every cell, into one buffer reused across cells.
/// Holds references: `in`, `shape` and `bc` must outlive it.
class CellGather {
 public:
  CellGather(const Grid<word_t>& in, const StencilShape& shape,
             const BoundarySpec& bc);

  /// True if every tap of cell (s, r, c) lands inside the grid.
  bool interior(std::size_t s, std::size_t r, std::size_t c) const noexcept {
    return slices_.interior(s, in_.depth()) &&
           rows_.interior(r, in_.height()) && cols_.interior(c, in_.width());
  }

  /// The tuple of cell (s, r, c). Valid until the next call.
  const std::vector<TupleElem>& operator()(std::size_t s, std::size_t r,
                                           std::size_t c);

 private:
  const Grid<word_t>& in_;
  const StencilShape& shape_;
  const BoundarySpec& bc_;
  AxisReach slices_;
  AxisReach rows_;
  AxisReach cols_;
  /// Per tap, the word distance ((ds * H + dr) * W + dc) * F.
  std::vector<std::ptrdiff_t> tap_words_;
  std::vector<TupleElem> tuple_;
};

/// Cell-wide stencil step: the kernel is any callable
/// void(const std::vector<TupleElem>&, word_t* out) that reads the
/// tap-major F-field tuple and writes the output cell's F words.
template <typename KernelCells>
Grid<word_t> apply_stencil_cells(const Grid<word_t>& in,
                                 const StencilShape& shape,
                                 const BoundarySpec& bc,
                                 KernelCells&& kernel) {
  Grid<word_t> out(in.height(), in.width(), in.depth(), in.layout());
  CellGather gather(in, shape, bc);
  for (std::size_t s = 0; s < in.depth(); ++s)
    for (std::size_t r = 0; r < in.height(); ++r)
      for (std::size_t c = 0; c < in.width(); ++c)
        kernel(gather(s, r, c), out.cell(s * in.height() + r, c));
  return out;
}

/// Run `steps` work-instances (output of step k feeds step k+1), matching
/// the hardware's ping-pong DRAM regions.
template <typename KernelCells>
Grid<word_t> run_steps_cells(Grid<word_t> state, const StencilShape& shape,
                             const BoundarySpec& bc, KernelCells&& kernel,
                             std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s)
    state = apply_stencil_cells(state, shape, bc, kernel);
  return state;
}

}  // namespace smache::grid
