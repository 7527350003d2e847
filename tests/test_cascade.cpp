// Tests for the temporal-blocking cascade extension: K fused time steps
// per DRAM pass must match the K-step reference bit-exactly, cut traffic
// by ~K, and correctly reject configurations it cannot fuse.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "support/test_grids.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_grid(std::size_t h, std::size_t w,
                               std::uint64_t seed) {
  return test_support::random_grid(h, w, seed, 1 << 12);
}

ProblemSpec open_problem(std::size_t steps) {
  ProblemSpec p;
  p.height = 12;
  p.width = 10;
  p.shape = grid::StencilShape::von_neumann4();
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = steps;
  return p;
}

class CascadeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CascadeDepthSweep, MatchesReference) {
  const std::size_t depth = GetParam();
  const auto p = open_problem(12);  // divisible by 1,2,3,4,6
  const auto init = random_grid(p.height, p.width, depth);
  const auto res =
      Engine(EngineOptions::smache()).run_cascade(p, init, depth);
  EXPECT_EQ(res.output, reference_run(p, init)) << "depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(Depths, CascadeDepthSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

TEST(Cascade, MirrorBoundariesSupported) {
  ProblemSpec p = open_problem(8);
  p.bc = grid::BoundarySpec::all_mirror();
  p.shape = grid::StencilShape::moore9();
  const auto init = random_grid(p.height, p.width, 77);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 4);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, ConstantBoundariesSupported) {
  ProblemSpec p = open_problem(6);
  p.bc = {grid::AxisBoundary::constant_halo(to_word<std::int32_t>(11)),
          grid::AxisBoundary::constant_halo(to_word<std::int32_t>(-4))};
  const auto init = random_grid(p.height, p.width, 78);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 3);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, FloatDiffusionSupported) {
  ProblemSpec p = open_problem(10);
  p.shape = grid::StencilShape::plus5();
  p.kernel = rtl::KernelSpec::diffusion(0.2f);
  grid::Grid<word_t> init(p.height, p.width, to_word(0.0f));
  init.at(6, 5) = to_word(256.0f);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 5);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, PopulatesWarmupCycles) {
  // Cascade warmup = pipeline fill: the cycle the first result writes
  // back. It must be populated (the seed left it at 0 — reports showed
  // cascade rows with zero warmup) and grow with depth, since each fused
  // stage adds its own window-fill latency.
  const auto p = open_problem(12);
  const auto init = random_grid(p.height, p.width, 99);
  const Engine engine(EngineOptions::smache());
  const auto shallow = engine.run_cascade(p, init, 1);
  const auto deep = engine.run_cascade(p, init, 4);
  EXPECT_GT(shallow.warmup_cycles, 0u);
  EXPECT_LT(shallow.warmup_cycles, shallow.cycles);
  EXPECT_GT(deep.warmup_cycles, shallow.warmup_cycles);
  EXPECT_LT(deep.warmup_cycles, deep.cycles);
}

TEST(Cascade, TrafficDropsByDepth) {
  const auto p = open_problem(12);
  const auto init = random_grid(p.height, p.width, 80);
  const Engine engine(EngineOptions::smache());
  const auto flat = engine.run_cascade(p, init, 1);
  const auto fused = engine.run_cascade(p, init, 6);
  const std::uint64_t n = p.cells();
  EXPECT_EQ(flat.dram.words_read, n * 12);
  EXPECT_EQ(fused.dram.words_read, n * 2);
  EXPECT_EQ(fused.dram.words_written, n * 2);
  EXPECT_LT(fused.cycles, flat.cycles)
      << "fewer passes must also cost fewer cycles";
}

TEST(Cascade, ResourcesScaleWithDepth) {
  const auto p = open_problem(4);
  const auto init = random_grid(p.height, p.width, 81);
  const Engine engine(EngineOptions::smache());
  const auto d1 = engine.run_cascade(p, init, 1);
  const auto d4 = engine.run_cascade(p, init, 4);
  // Four windows and kernels on chip instead of one.
  EXPECT_GT(d4.resources.r_stream, 3 * d1.resources.r_stream);
  EXPECT_EQ(d4.estimate->r_stream, 4 * d1.estimate->r_stream);
}

TEST(Cascade, PeriodicBoundariesRejected) {
  ProblemSpec p = open_problem(4);
  p.bc = grid::BoundarySpec::paper_example();
  const auto init = random_grid(p.height, p.width, 82);
  EXPECT_THROW(
      Engine(EngineOptions::smache()).run_cascade(p, init, 2),
      contract_error)
      << "periodic wraps need data that does not exist yet within a pass";
}

TEST(Cascade, BaselineArchitectureRejected) {
  const auto p = open_problem(4);
  const auto init = random_grid(p.height, p.width, 84);
  const Engine baseline(EngineOptions::baseline());
  EXPECT_THROW(baseline.run_cascade(p, init, 2), contract_error)
      << "the per-tap baseline has no cascade to fuse steps with";
  // Depth 1 fuses nothing: it is the baseline's own per-instance run.
  const auto flat = baseline.run_cascade(p, init, 1);
  EXPECT_EQ(flat.arch, Architecture::Baseline);
  EXPECT_EQ(flat.cycles, baseline.run(p, init).cycles);
  EXPECT_EQ(flat.output, reference_run(p, init));
}

TEST(Cascade, IndivisibleStepsRejected) {
  const auto p = open_problem(7);
  const auto init = random_grid(p.height, p.width, 83);
  EXPECT_THROW(Engine(EngineOptions::smache()).run_cascade(p, init, 2),
               contract_error);
}

TEST(Cascade, SurvivesDramStalls) {
  ProblemSpec p = open_problem(6);
  const auto init = random_grid(p.height, p.width, 84);
  EngineOptions opts = EngineOptions::smache();
  opts.dram.stall_every = 5;
  opts.dram.stall_cycles = 3;
  const auto res = Engine(opts).run_cascade(p, init, 3);
  EXPECT_EQ(res.output, reference_run(p, init));
}

TEST(Cascade, OneDimensionalFirChain) {
  // 1D moving-average FIR over a long line, fused 4 deep — exercises the
  // degenerate-height path end to end.
  ProblemSpec p;
  p.height = 1;
  p.width = 64;
  p.shape = grid::StencilShape::custom("fir3", {{0, -1}, {0, 0}, {0, 1}});
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::average_int();
  p.steps = 4;
  const auto init = random_grid(1, 64, 85);
  const auto res = Engine(EngineOptions::smache()).run_cascade(p, init, 4);
  EXPECT_EQ(res.output, reference_run(p, init));
}

}  // namespace
}  // namespace smache
