// 3D stencil family end-to-end: the depth axis through Grid (checked
// sizes, slice-major addressing, shape-separating hashes), three-axis
// tiling (gather/stitch round-trips, threaded-vs-serial bit-identity
// including a periodic slice axis under fused steps), engine equivalence
// (smache vs baseline vs the slice-iterating reference for both 3D
// application workloads at cascade depths 1 and 2), and the sweep layer
// (HxWxD parsing with full-token errors, depth-folding labels/keys only
// when D > 1, spec round-trips, warm store reuse across a 2D-shaped
// segment).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <tuple>

#include "common/assert.hpp"
#include "core/engine.hpp"
#include "grid/tiling.hpp"
#include "sweep/executor.hpp"
#include "sweep/spec.hpp"
#include "sweep/specio.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache {
namespace {

using grid::AxisBoundary;
using grid::BoundarySpec;
using grid::StencilShape;
using grid::TileGeometry;
using grid::TilingLayout;

grid::Grid<word_t> counting_grid(std::size_t h, std::size_t w,
                                 std::size_t d) {
  grid::Grid<word_t> g(h, w, d, CellLayout{});
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = static_cast<word_t>(i * 2654435761u + 12345u);
  return g;
}

// ---- grid layer: checked sizes, addressing, hashing ----

TEST(Grid3D, CheckedCellsCountsAndRejectsOverflow) {
  EXPECT_EQ(grid::Grid<word_t>::checked_cells(8, 8, 2), 128u);
  EXPECT_EQ(grid::Grid<word_t>::checked_words(8, 8, 2, 3), 384u);
  const std::size_t big = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(grid::Grid<word_t>::checked_cells(big, 3, 5),
               contract_error);
  EXPECT_THROW(grid::Grid<word_t>::checked_cells(3, big, 5),
               contract_error);
  // The plane fits; multiplying in the depth overflows.
  EXPECT_THROW(grid::Grid<word_t>::checked_cells(1u << 20, 1u << 20,
                                                 1u << 30),
               contract_error);
  // The cells fit; multiplying in the fields overflows.
  EXPECT_THROW(grid::Grid<word_t>::checked_words(1u << 20, 1u << 20,
                                                 1u << 20, 16),
               contract_error);
}

TEST(Grid3D, ValidateRejectsOverflowBeforeAllocation) {
  ProblemSpec p;
  p.height = 1u << 21;
  p.width = 1u << 21;
  p.depth = 1u << 22;  // h * w * d overflows 64-bit
  p.steps = 1;
  EXPECT_THROW(p.validate(), contract_error);
}

TEST(Grid3D, AtIndexesSliceMajor) {
  const std::size_t H = 3, W = 4, D = 2;
  const auto g = counting_grid(H, W, D);
  for (std::size_t s = 0; s < D; ++s)
    for (std::size_t r = 0; r < H; ++r)
      for (std::size_t c = 0; c < W; ++c) {
        EXPECT_EQ(g.at(s, r, c, 0), g[(s * H + r) * W + c]);
        // The 2D accessor addresses the same cell by its global row.
        EXPECT_EQ(g.at(s, r, c, 0), g.at(s * H + r, c));
      }
  EXPECT_EQ(g.global_rows(), D * H);
}

TEST(Grid3D, HashSeparatesDepthFromWidth) {
  // 8x8x2 and 8x16x1 carry identical word sequences; only the shape fold
  // can tell them apart.
  grid::Grid<word_t> a(8, 8, 2, CellLayout{});
  grid::Grid<word_t> b(8, 16, 1, CellLayout{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<word_t>(i);
    b[i] = static_cast<word_t>(i);
  }
  EXPECT_NE(sweep::hash_grid(a), sweep::hash_grid(b));
  // D = 1 folds nothing extra: the hash equals the plain 2D grid's.
  grid::Grid<word_t> c(8, 16, CellLayout{});
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = static_cast<word_t>(i);
  EXPECT_EQ(sweep::hash_grid(b), sweep::hash_grid(c));
}

// ---- three-axis tiling ----

TEST(Tiling3D, GatherStitchRoundTripsAllAxes) {
  const std::size_t H = 6, W = 5, D = 4;
  const auto global = counting_grid(H, W, D);
  for (const BoundarySpec& bc :
       {BoundarySpec::all_open(), BoundarySpec::all_periodic(),
        BoundarySpec::all_mirror()}) {
    const TilingLayout layout = grid::plan_tiling(
        H, W, D, 2, 2, 2, StencilShape::star7(), bc, 1);
    ASSERT_EQ(layout.tiles.size(), 8u);
    grid::Grid<word_t> rebuilt(H, W, D, CellLayout{});
    for (const TileGeometry& t : layout.tiles) {
      const auto sub = grid::gather_tile(global, t, bc);
      EXPECT_EQ(sub.height(), t.sub_height());
      EXPECT_EQ(sub.width(), t.sub_width());
      EXPECT_EQ(sub.depth(), t.sub_depth());
      // Every interior cell of the gathered subgrid is the global cell.
      for (std::size_t s = 0; s < t.slices; ++s)
        for (std::size_t r = 0; r < t.rows; ++r)
          for (std::size_t c = 0; c < t.cols; ++c)
            EXPECT_EQ(sub.at(t.halo_front + s, t.halo_top + r,
                             t.halo_left + c, 0),
                      global.at(t.s0 + s, t.r0 + r, t.c0 + c, 0));
      grid::stitch_interior(rebuilt, t, sub);
    }
    EXPECT_EQ(rebuilt, global) << grid::to_string(bc.rows.kind);
  }
}

TEST(Tiling3D, PeriodicSliceHalosWrapAtGather) {
  const std::size_t H = 4, W = 4, D = 4;
  const auto global = counting_grid(H, W, D);
  BoundarySpec bc = BoundarySpec::all_open();
  bc.slices = AxisBoundary::periodic();
  const TilingLayout layout = grid::plan_tiling(
      H, W, D, 1, 1, 2, StencilShape::star7(), bc, 1);
  ASSERT_EQ(layout.tiles.size(), 2u);
  const TileGeometry& front = layout.tiles[0];
  ASSERT_EQ(front.s0, 0u);
  ASSERT_GE(front.halo_front, 1u);
  const auto sub = grid::gather_tile(global, front, bc);
  // The front halo slice of tile 0 wraps to the last global slice.
  for (std::size_t r = 0; r < H; ++r)
    for (std::size_t c = 0; c < W; ++c)
      EXPECT_EQ(sub.at(front.halo_front - 1, front.halo_top + r,
                       front.halo_left + c, 0),
                global.at(D - 1, r, c, 0));
}

TEST(Tiling3D, ThreadedMatchesSerialIncludingPeriodicSliceDepth2) {
  ProblemSpec p;
  p.height = 8;
  p.width = 8;
  p.depth = 6;
  p.shape = StencilShape::star7();
  p.bc = {AxisBoundary::open(), AxisBoundary::open(),
          AxisBoundary::periodic()};
  p.kernel = sweep::make_kernel("jacobi");
  p.steps = 4;
  const auto init = sweep::make_input("jacobi-init", 8, 8, 6, 77);
  // Splitting the slice axis turns the periodic wrap into halo exchange,
  // which is what makes depth 2 legal here at all (untiled it is a
  // validated rejection, same as a 2D periodic row axis).
  TilingSpec serial;
  serial.tiles_s = 2;
  serial.depth = 2;
  serial.threads = 1;
  TilingSpec threaded = serial;
  threaded.tiles_r = 2;
  threaded.threads = 4;
  const Engine engine(EngineOptions::smache());
  const RunResult a = engine.run_tiled(p, init, serial);
  const RunResult b = engine.run_tiled(p, init, threaded);
  ASSERT_TRUE(a.output.has_value());
  ASSERT_TRUE(b.output.has_value());
  EXPECT_EQ(*a.output, *b.output);
  EXPECT_EQ(*a.output, reference_run(p, init));
  EXPECT_THROW(engine.run_cascade(p, init, 2), contract_error);
}

TEST(Engine3D, WorkloadsMatchReferenceAcrossArchsAndDepths) {
  struct Case {
    const char* kernel;
    const char* input;
  };
  for (const Case& w : {Case{"jacobi", "jacobi-init"},
                        Case{"hotspot", "hotspot-chip"}}) {
    ProblemSpec p;
    p.height = 8;
    p.width = 7;
    p.depth = 4;
    p.shape = StencilShape::star7();
    p.bc = sweep::make_boundary("island");
    p.kernel = sweep::make_kernel(w.kernel);
    p.steps = 4;
    p.validate();
    const auto init = sweep::make_input(w.input, 8, 7, 4, 99);
    const auto golden = reference_run(p, init);
    const RunResult sm = Engine(EngineOptions::smache()).run(p, init);
    ASSERT_TRUE(sm.output.has_value());
    EXPECT_EQ(*sm.output, golden) << w.kernel << " smache d1";
    const RunResult cas =
        Engine(EngineOptions::smache()).run_cascade(p, init, 2);
    ASSERT_TRUE(cas.output.has_value());
    EXPECT_EQ(*cas.output, golden) << w.kernel << " smache d2";
    const RunResult bl = Engine(EngineOptions::baseline()).run(p, init);
    ASSERT_TRUE(bl.output.has_value());
    EXPECT_EQ(*bl.output, golden) << w.kernel << " baseline";
  }
}

// ---- sweep layer: parsing, labels, keys, round-trips ----

TEST(Parse3D, GridParsesAllForms) {
  EXPECT_EQ(sweep::parse_grid("16"), (sweep::GridDim{16, 16, 1}));
  EXPECT_EQ(sweep::parse_grid("16x32"), (sweep::GridDim{16, 32, 1}));
  EXPECT_EQ(sweep::parse_grid("16x32x8"), (sweep::GridDim{16, 32, 8}));
}

TEST(Parse3D, ErrorsNameTheFullToken) {
  for (const char* bad : {"16x0x8", "0", "0x4", "4x4x0", "axb", "4x4x4x4",
                          "16x", "x16", "16xx8", ""}) {
    try {
      sweep::parse_grid(bad);
      FAIL() << "expected contract_error for '" << bad << "'";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(bad) + "'"),
                std::string::npos)
          << "error for '" << bad << "' does not quote the token: "
          << e.what();
    }
  }
}

TEST(Sweep3D, LabelsFoldDepthOnlyWhenAboveOne) {
  // A 2D point's label never mentions the slice axis — byte-identical to
  // the pre-3D label grammar.
  sweep::SweepSpec flat;
  flat.grids = {{8, 8}};
  flat.steps = {2};
  const sweep::Scenario s2d = flat.scenario_at(0);
  EXPECT_EQ(s2d.label.find("8x8x"), std::string::npos) << s2d.label;
  EXPECT_NE(s2d.label.find("/8x8/"), std::string::npos) << s2d.label;

  sweep::SweepSpec deep;
  deep.grids = {{8, 8, 4}};
  deep.tiles = {{1, 1}, {2, 2, 2}};
  deep.stencils = {"star7"};
  deep.boundaries = {"island"};
  deep.kernels = {"jacobi"};
  deep.inputs = {"jacobi-init"};
  deep.steps = {2};
  std::set<std::string> labels;
  bool saw_tiles3d = false;
  for (std::size_t i = 0; i < deep.scenario_count(); ++i) {
    const sweep::Scenario s = deep.scenario_at(i);
    labels.insert(s.label);
    EXPECT_NE(s.label.find("8x8x4"), std::string::npos) << s.label;
    if (s.tiles.depth > 1) {
      EXPECT_NE(s.label.find("t2x2x2"), std::string::npos) << s.label;
      saw_tiles3d = true;
    }
  }
  EXPECT_TRUE(saw_tiles3d);
  EXPECT_EQ(labels.size(), deep.scenario_count());  // all distinct
}

TEST(Sweep3D, SliceTilesOverA2DGridAreRejected) {
  sweep::SweepSpec spec;
  spec.grids = {{8, 8}};
  spec.tiles = {{1, 1, 2}};
  try {
    spec.validate();
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the grid extent"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sweep3D, ScenarioKeySeparatesDepthButNotDepthOne) {
  sweep::SweepSpec spec;
  spec.grids = {{8, 8, 4}};
  spec.stencils = {"star7"};
  spec.boundaries = {"island"};
  spec.kernels = {"jacobi"};
  spec.inputs = {"jacobi-init"};
  spec.steps = {2};
  sweep::Scenario s3 = spec.scenario_at(0);
  ASSERT_EQ(s3.problem.depth, 4u);
  // Same label/seed with the depth forced back to 1 must key differently:
  // the fold is not just riding on the label.
  sweep::Scenario s2 = s3;
  s2.problem.depth = 1;
  EXPECT_NE(sweep::ResultStore::scenario_key(s3, false),
            sweep::ResultStore::scenario_key(s2, false));
  // And a D=1 scenario's key ignores the depth member entirely (the
  // pre-3D fold had no such branch, so old segments stay addressable).
  sweep::Scenario s1 = s2;
  s1.problem.depth = 1;
  EXPECT_EQ(sweep::ResultStore::scenario_key(s2, false),
            sweep::ResultStore::scenario_key(s1, false));
}

TEST(Sweep3D, SpecioRoundTrips3DGridsAndTiles) {
  sweep::SweepSpec spec;
  spec.grids = {{16, 16, 8}, {11, 11}};
  spec.tiles = {{1, 1}, {2, 2, 2}};
  spec.stencils = {"star7"};
  spec.boundaries = {"island"};
  spec.kernels = {"jacobi"};
  spec.inputs = {"jacobi-init"};
  const std::string json = sweep::emit_spec_json(spec);
  // 2D dims keep the two-axis token, 3D dims gain the third.
  EXPECT_NE(json.find("\"16x16x8\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"11x11\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"2x2x2\""), std::string::npos) << json;
  const sweep::SweepSpec back = sweep::parse_spec_json(json);
  EXPECT_EQ(back.grids, spec.grids);
  EXPECT_EQ(back.tiles, spec.tiles);
  EXPECT_EQ(sweep::emit_spec_json(back), json);
  // The shared token round-trips through the parser on its own too.
  using sweep::GridDim;
  for (const GridDim g : {GridDim{11, 7}, GridDim{16, 16, 8}, GridDim{1, 1}})
    EXPECT_EQ(sweep::parse_grid(sweep::to_string(g)), g)
        << sweep::to_string(g);
}

TEST(Sweep3D, WarmStoreServes2DSegmentAnd3DPointsAppend) {
  namespace fs = std::filesystem;
  const std::string dir = "store_tmp_3d_warm";
  fs::remove_all(dir);
  sweep::SweepSpec spec2d;
  spec2d.grids = {{8, 8}};
  spec2d.stencils = {"vn4"};
  spec2d.boundaries = {"island"};
  spec2d.steps = {2};
  {
    sweep::ResultStore store(dir);
    sweep::ExecutorOptions opts;
    opts.store = &store;
    const auto first = sweep::SweepExecutor(opts).run(spec2d);
    for (const auto& r : first) EXPECT_FALSE(r.from_store);
  }
  // Widen the same sweep with a 3D grid: the 2D points must be served
  // from the existing (pre-3D-shaped) segment, the 3D points execute.
  sweep::SweepSpec mixed = spec2d;
  mixed.grids = {{8, 8}, {8, 8, 4}};
  {
    sweep::ResultStore store(dir);
    sweep::ExecutorOptions opts;
    opts.store = &store;
    const auto second = sweep::SweepExecutor(opts).run(mixed);
    for (const auto& r : second)
      EXPECT_EQ(r.from_store, r.scenario.problem.depth == 1)
          << r.scenario.label;
  }
  // Resume replays everything — 2D and 3D — from the store.
  {
    sweep::ResultStore store(dir);
    sweep::ExecutorOptions opts;
    opts.store = &store;
    const auto third = sweep::SweepExecutor(opts).run(mixed);
    for (const auto& r : third)
      EXPECT_TRUE(r.from_store) << r.scenario.label;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace smache
