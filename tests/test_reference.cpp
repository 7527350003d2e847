// Unit tests for the golden reference executor: tuple gathering through
// boundaries, hand-computed stencil steps, and the oracle's interior/
// boundary split against the per-tap specification gather.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "grid/reference.hpp"
#include "rtl/kernel.hpp"
#include "sweep/workloads.hpp"

namespace smache::grid {
namespace {

Grid<word_t> iota_grid(std::size_t h, std::size_t w) {
  Grid<word_t> g(h, w);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = to_word(static_cast<std::int32_t>(i));
  return g;
}

/// F = 1 cell-wide kernel over a word kernel.
template <typename WordKernel>
auto cells(WordKernel word_kernel) {
  return [word_kernel](const std::vector<TupleElem>& t, word_t* out) {
    out[0] = word_kernel(t);
  };
}

word_t average(const std::vector<TupleElem>& t) {
  return rtl::apply_kernel(rtl::KernelSpec::average_int(), t);
}

TEST(Reference, GatherInterior) {
  const auto g = iota_grid(11, 11);
  const auto t = gather_cell_tuple(g, StencilShape::von_neumann4(),
                                   BoundarySpec::paper_example(), 5, 5);
  ASSERT_EQ(t.size(), 4u);
  // N, W, E, S of linear index 60.
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 49);
  EXPECT_EQ(from_word<std::int32_t>(t[1].value), 59);
  EXPECT_EQ(from_word<std::int32_t>(t[2].value), 61);
  EXPECT_EQ(from_word<std::int32_t>(t[3].value), 71);
  for (const auto& e : t) EXPECT_TRUE(e.valid);
}

TEST(Reference, GatherPaperCornerCases) {
  // Figure 1(a): for cell 0 (top-left), N wraps to 110, W is open-missing.
  const auto g = iota_grid(11, 11);
  const auto t = gather_cell_tuple(g, StencilShape::von_neumann4(),
                                   BoundarySpec::paper_example(), 0, 0);
  EXPECT_TRUE(t[0].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 110);  // N -> bottom row
  EXPECT_FALSE(t[1].valid);                             // W open
  EXPECT_TRUE(t[2].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[2].value), 1);    // E
  EXPECT_TRUE(t[3].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[3].value), 11);   // S
}

TEST(Reference, GatherConstantHalo) {
  const auto g = iota_grid(4, 4);
  const BoundarySpec bc{AxisBoundary::constant_halo(to_word<std::int32_t>(99)),
                        AxisBoundary::open()};
  const auto t = gather_cell_tuple(g, StencilShape::von_neumann4(), bc, 0, 1);
  EXPECT_TRUE(t[0].valid);
  EXPECT_EQ(from_word<std::int32_t>(t[0].value), 99);
}

TEST(Reference, AverageStepHandComputed) {
  // 3x3 all-open grid, 4-point average at the centre: (1+3+5+7)/4 = 4.
  Grid<word_t> g(3, 3);
  const std::int32_t vals[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t i = 0; i < 9; ++i) g[i] = to_word(vals[i]);
  const auto out = apply_stencil_cells(g, StencilShape::von_neumann4(),
                                       BoundarySpec::all_open(),
                                       cells(average));
  EXPECT_EQ(from_word<std::int32_t>(out.at(1, 1)), 4);
  // Corner (0,0): neighbours E=1, S=3 -> (1+3)/2 = 2.
  EXPECT_EQ(from_word<std::int32_t>(out.at(0, 0)), 2);
  // Edge (0,1): W=0, E=2, S=4 -> 6/3 = 2.
  EXPECT_EQ(from_word<std::int32_t>(out.at(0, 1)), 2);
}

TEST(Reference, PeriodicUniformGridIsFixedPoint) {
  // With all-periodic boundaries, a constant grid is a fixed point of the
  // averaging kernel at every step.
  Grid<word_t> g(6, 7, to_word<std::int32_t>(5));
  const auto out = run_steps_cells(g, StencilShape::von_neumann4(),
                                   BoundarySpec::all_periodic(),
                                   cells(average), 10);
  EXPECT_EQ(out, g);
}

TEST(Reference, SumKernelConservesTotalUnderPeriodicShift) {
  // An identity-like check: shifting stencil {(0,1)} under all-periodic
  // boundaries is a circular shift, preserving the multiset of values.
  Grid<word_t> g = iota_grid(3, 4);
  const auto first = [](const std::vector<TupleElem>& t) {
    return t[0].value;
  };
  const auto out = apply_stencil_cells(g, StencilShape::custom("e", {{0, 1}}),
                                       BoundarySpec::all_periodic(),
                                       cells(first));
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      EXPECT_EQ(out.at(r, c), g.at(r, (c + 1) % 4));
}

TEST(Reference, StepsComposeSequentially) {
  const auto g = iota_grid(5, 5);
  const auto kernel = cells(average);
  const auto two_steps = run_steps_cells(g, StencilShape::von_neumann4(),
                                         BoundarySpec::paper_example(),
                                         kernel, 2);
  const auto one = apply_stencil_cells(g, StencilShape::von_neumann4(),
                                       BoundarySpec::paper_example(), kernel);
  const auto one_more = apply_stencil_cells(
      one, StencilShape::von_neumann4(), BoundarySpec::paper_example(),
      kernel);
  EXPECT_EQ(two_steps, one_more);
}

TEST(Reference, InteriorIsExactlyTheZonesMid) {
  // The oracle's interior test and the case map's Mid zone are the same
  // set of cells wherever the case map exists.
  const auto shape = StencilShape::custom(
      "lopsided", {{0, 0}, {-2, 1}, {1, -1}, {0, 2}});
  const auto g = iota_grid(7, 9);
  const CaseMap cases(7, 9, shape);
  const CellGather gather(g, shape, BoundarySpec::all_open());
  for (std::size_t r = 0; r < 7; ++r)
    for (std::size_t c = 0; c < 9; ++c)
      EXPECT_EQ(gather.interior(0, r, c),
                cases.rows().zone_of(r) == cases.rows().mid() &&
                    cases.cols().zone_of(c) == cases.cols().mid())
          << r << "," << c;
}

TEST(Reference, OneSidedShapeBelowTheZoneMinimumRuns) {
  // ProblemSpec::validate checks the span (max - min), the zones need the
  // reach (max(0, -min) + max(0, max)): every tap one row down has span 0
  // but reach 1, so a 1-row grid is valid yet has no interior row.
  ProblemSpec p;
  p.height = 1;
  p.width = 4;
  p.shape = StencilShape::custom("down", {{1, 0}, {1, 1}});
  p.bc = BoundarySpec::all_periodic();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = 2;
  const auto init = iota_grid(1, 4);
  const CellGather gather(init, p.shape, p.bc);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FALSE(gather.interior(0, 0, c));
  // Periodic rows fold row 1 onto row 0: the cell averages itself with its
  // right neighbour.
  // Step one gives {0, 1, 2, 1}, step two {0, 1, 1, 0}.
  const auto out = reference_run(p, init);
  const std::int32_t twice[4] = {0, 1, 1, 0};
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_EQ(from_word<std::int32_t>(out.at(0, c)), twice[c]) << c;
}

// ---- differential: the oracle against the per-tap specification --------

/// p.steps steps of the per-tap specification: every cell through
/// gather_cell_tuple and rtl::apply_kernel_cells, nothing shared with the
/// oracle's gather.
Grid<word_t> per_tap_run(const ProblemSpec& p, Grid<word_t> state) {
  const std::size_t fields = p.kernel.fields();
  for (std::size_t step = 0; step < p.steps; ++step) {
    Grid<word_t> next(p.height, p.width, p.depth, state.layout());
    for (std::size_t s = 0; s < p.depth; ++s)
      for (std::size_t r = 0; r < p.height; ++r)
        for (std::size_t c = 0; c < p.width; ++c)
          rtl::apply_kernel_cells(
              p.kernel, gather_cell_tuple(state, p.shape, p.bc, s, r, c),
              fields, next.cell(s, r, c));
    state = std::move(next);
  }
  return state;
}

/// Axis extents from the validate minimum (span + 1, no interior when the
/// reach exceeds the span) through one interior coordinate to three.
std::vector<std::size_t> extents(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::size_t>(hi - lo);
  const AxisReach reach(lo, hi);
  const std::set<std::size_t> set{span + 1, reach.lo + reach.hi + 1,
                                  reach.lo + reach.hi + 3};
  return {set.begin(), set.end()};
}

std::vector<StencilShape> differential_shapes() {
  std::vector<StencilShape> shapes;
  for (const sweep::StencilFamily& fam : sweep::stencil_catalogue()) {
    const std::size_t draws = fam.seeded ? 4 : 1;
    for (std::uint64_t seed = 0; seed < draws; ++seed)
      shapes.push_back(fam.make(seed * 7919 + 3));
  }
  // One-sided shapes whose reach exceeds their span on the row axis.
  shapes.push_back(StencilShape::custom("down1", {{1, 0}, {1, 1}}));
  shapes.push_back(
      StencilShape::custom("down2", {{1, -2}, {2, 0}, {2, 2}, {1, 1}}));
  return shapes;
}

TEST(Reference, OracleMatchesPerTapSpecEverywhere) {
  const char* kernels[] = {"average", "max", "jacobi", "hotspot", "fdtd"};
  std::size_t checked = 0;
  std::set<std::size_t> fields_seen, shapes_seen;
  std::set<std::string> boundaries_seen;
  bool saw_3d = false, saw_no_interior = false;
  Rng rng(20260301);
  const std::vector<StencilShape> shapes = differential_shapes();
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const StencilShape& shape = shapes[si];
    for (const sweep::BoundaryFamily& bfam : sweep::boundary_catalogue()) {
      for (const char* kname : kernels) {
        ProblemSpec p;
        p.shape = shape;
        p.bc = bfam.spec;
        p.kernel = sweep::make_kernel(kname);
        p.steps = 2;
        for (const std::size_t d : extents(shape.ds_min(), shape.ds_max()))
          for (const std::size_t h : extents(shape.dr_min(), shape.dr_max()))
            for (const std::size_t w :
                 extents(shape.dc_min(), shape.dc_max())) {
              p.depth = d;
              p.height = h;
              p.width = w;
              try {
                p.validate();
              } catch (const contract_error&) {
                continue;  // e.g. a centre-first kernel on moore9
              }
              // Finite floats for float kernels: a NaN would spread and
              // hide a wrong gather in step two.
              const bool floats =
                  p.kernel.value_type == rtl::ValueType::Float32;
              Grid<word_t> init(h, w, d, CellLayout{p.kernel.fields()});
              for (std::size_t i = 0; i < init.size(); ++i)
                init[i] = floats ? to_word(static_cast<float>(
                                       rng.next_below(1 << 12)) / 64.0f)
                                 : static_cast<word_t>(rng.next_u64());
              ASSERT_EQ(reference_run(p, init), per_tap_run(p, init))
                  << shape.name() << " " << bfam.name << " " << kname
                  << " " << h << "x" << w << "x" << d;
              ++checked;
              fields_seen.insert(p.kernel.fields());
              shapes_seen.insert(si);
              boundaries_seen.insert(bfam.name);
              saw_3d = saw_3d || (shape.is_3d() && d > 1);
              const CellGather gather(init, p.shape, p.bc);
              bool any_interior = false;
              for (std::size_t s = 0; s < d; ++s)
                for (std::size_t r = 0; r < h; ++r)
                  for (std::size_t c = 0; c < w; ++c)
                    any_interior = any_interior || gather.interior(s, r, c);
              saw_no_interior = saw_no_interior || !any_interior;
            }
      }
    }
  }
  EXPECT_EQ(fields_seen, (std::set<std::size_t>{1, 2, 3}));
  EXPECT_EQ(shapes_seen.size(), shapes.size());
  EXPECT_EQ(boundaries_seen.size(), sweep::boundary_catalogue().size());
  EXPECT_TRUE(saw_3d);
  EXPECT_TRUE(saw_no_interior);
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace smache::grid
