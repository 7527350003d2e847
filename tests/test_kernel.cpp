// Unit tests for the kernels and the pipelined kernel wrapper.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "rtl/kernel.hpp"
#include "rtl/kernel_pipeline.hpp"
#include "sim/simulator.hpp"

namespace smache::rtl {
namespace {

grid::TupleElem elem_i32(std::int32_t v, bool valid = true) {
  return {to_word(v), valid};
}
grid::TupleElem elem_f32(float v, bool valid = true) {
  return {to_word(v), valid};
}

TEST(Kernel, AverageIntTruncatesTowardZero) {
  const auto spec = KernelSpec::average_int();
  EXPECT_EQ(from_word<std::int32_t>(apply_kernel(
                spec, {elem_i32(1), elem_i32(2), elem_i32(3), elem_i32(5)})),
            2);  // 11/4
  EXPECT_EQ(from_word<std::int32_t>(apply_kernel(
                spec, {elem_i32(-1), elem_i32(-2), elem_i32(-4)})),
            -2);  // -7/3 truncates to -2
}

TEST(Kernel, AverageSkipsInvalid) {
  const auto spec = KernelSpec::average_int();
  EXPECT_EQ(from_word<std::int32_t>(apply_kernel(
                spec, {elem_i32(10), elem_i32(999, false), elem_i32(20)})),
            15);
}

TEST(Kernel, AverageAllInvalidIsZero) {
  const auto spec = KernelSpec::average_int();
  EXPECT_EQ(apply_kernel(spec, {elem_i32(1, false), elem_i32(2, false)}),
            0u);
}

TEST(Kernel, AverageIntNoOverflowAtExtremes) {
  const auto spec = KernelSpec::average_int();
  const std::int32_t big = 2'000'000'000;
  EXPECT_EQ(from_word<std::int32_t>(apply_kernel(
                spec, {elem_i32(big), elem_i32(big), elem_i32(big),
                       elem_i32(big)})),
            big)
      << "the wide accumulator must not overflow on tuple sums";
}

TEST(Kernel, AverageFloat) {
  const auto spec = KernelSpec::average_float();
  EXPECT_EQ(from_word<float>(apply_kernel(
                spec, {elem_f32(1.0f), elem_f32(2.0f)})),
            1.5f);
}

TEST(Kernel, SumWrapsLikeHardware) {
  KernelSpec spec{KernelKind::Sum, ValueType::Int32, 0, 0};
  EXPECT_EQ(apply_kernel(spec, {{0xFFFFFFFFu, true}, {2u, true}}), 1u);
}

TEST(Kernel, MaxIgnoresInvalid) {
  KernelSpec spec{KernelKind::Max, ValueType::Int32, 0, 0};
  EXPECT_EQ(from_word<std::int32_t>(apply_kernel(
                spec, {elem_i32(3), elem_i32(100, false), elem_i32(-2)})),
            3);
}

TEST(Kernel, IdentityPassesFirst) {
  KernelSpec spec{KernelKind::Identity, ValueType::Int32, 0, 0};
  EXPECT_EQ(apply_kernel(spec, {elem_i32(42), elem_i32(1)}),
            to_word<std::int32_t>(42));
}

TEST(Kernel, DiffusionConservesUniformField) {
  const auto spec = KernelSpec::diffusion(0.2f);
  const auto out = apply_kernel(
      spec, {elem_f32(3.0f), elem_f32(3.0f), elem_f32(3.0f), elem_f32(3.0f),
             elem_f32(3.0f)});
  EXPECT_EQ(from_word<float>(out), 3.0f);
}

TEST(Kernel, DiffusionMovesTowardNeighbourMean) {
  // centre 0, four neighbours at 10: out = 0 + 0.1*(40 - 4*0) = 4.
  const auto spec = KernelSpec::diffusion(0.1f);
  const auto out = apply_kernel(
      spec, {elem_f32(0.0f), elem_f32(10.0f), elem_f32(10.0f),
             elem_f32(10.0f), elem_f32(10.0f)});
  EXPECT_EQ(from_word<float>(out), 4.0f);
}

TEST(Kernel, UpwindUsesMissingAsCentre) {
  // Missing west/north fall back to the centre: zero gradient.
  const auto spec = KernelSpec::upwind(0.5f, 0.5f);
  const auto out = apply_kernel(
      spec, {elem_f32(8.0f), elem_f32(0.0f, false), elem_f32(0.0f, false)});
  EXPECT_EQ(from_word<float>(out), 8.0f);
}

TEST(Kernel, NamesAreDescriptive) {
  EXPECT_EQ(KernelSpec::average_int().name(), "average/i32");
  EXPECT_EQ(KernelSpec::diffusion(0.1f).name(), "diffusion/f32");
}

TEST(KernelPipeline, FixedLatencyAndOrder) {
  sim::Simulator sim;
  KernelPipeline kp(sim, "k", KernelSpec::average_int(), 4, 1000, 3);
  // Feed three tuples; results must come out in order, each = average.
  for (std::uint64_t i = 0; i < 3; ++i) {
    TupleMsg m;
    m.index = i;
    m.count = 4;
    for (std::size_t j = 0; j < 4; ++j)
      m.elems[j] = elem_i32(static_cast<std::int32_t>(4 * i));
    ASSERT_TRUE(kp.in().can_push());
    kp.in().push(m);
    sim.step();
  }
  std::vector<ResultMsg> results;
  for (int c = 0; c < 20 && results.size() < 3; ++c) {
    if (kp.out().can_pop()) results.push_back(kp.out().pop());
    sim.step();
  }
  ASSERT_EQ(results.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(from_word<std::int32_t>(results[i].values[0]),
              static_cast<std::int32_t>(4 * i));
  }
}

TEST(KernelPipeline, BackpressureFreezesWithoutLoss) {
  sim::Simulator sim;
  KernelPipeline kp(sim, "k", KernelSpec::average_int(), 1, 100, 3);
  // Push 6 tuples while never draining: out fifo (2) + stages (3) fill up;
  // input fifo backs up; nothing is lost once we drain.
  std::uint64_t pushed = 0;
  for (int c = 0; c < 30; ++c) {
    if (pushed < 6 && kp.in().can_push()) {
      TupleMsg m;
      m.index = pushed;
      m.count = 1;
      m.elems[0] = elem_i32(static_cast<std::int32_t>(pushed));
      kp.in().push(m);
      ++pushed;
    }
    sim.step();
  }
  EXPECT_EQ(pushed, 6u);
  std::vector<std::uint64_t> order;
  for (int c = 0; c < 40 && order.size() < 6; ++c) {
    if (kp.out().can_pop()) order.push_back(kp.out().pop().index);
    sim.step();
  }
  ASSERT_EQ(order.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(kp.empty());
}

TEST(KernelPipeline, EmptyReflectsInFlightWork) {
  sim::Simulator sim;
  KernelPipeline kp(sim, "k", KernelSpec::average_int(), 1, 10, 2);
  EXPECT_TRUE(kp.empty());
  TupleMsg m;
  m.index = 0;
  m.count = 1;
  m.elems[0] = elem_i32(1);
  kp.in().push(m);
  sim.step();
  EXPECT_FALSE(kp.empty());
}

}  // namespace
}  // namespace smache::rtl

// Weighted 3x3 convolution kernels (Gaussian / Laplacian), including
// end-to-end engine runs.
namespace smache {
namespace {

grid::Grid<word_t> random_image(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  grid::Grid<word_t> g(n, n);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = to_word(static_cast<std::int32_t>(rng.next_below(256)));
  return g;
}

TEST(WeightedKernels, GaussianUniformFieldIsFixedPoint) {
  // Sum of weights = 16, >>4: a constant field maps to itself.
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(100), true};
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple)),
            100);
}

TEST(WeightedKernels, LaplacianFlatFieldIsZero) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(37), true};
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            0);
}

TEST(WeightedKernels, LaplacianDetectsPointEdge) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(0), true};
  tuple[4] = {to_word<std::int32_t>(10), true};  // bright centre pixel
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            80);
}

TEST(WeightedKernels, MissingElementsExtendTheCentre) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {0, false};
  tuple[4] = {to_word<std::int32_t>(50), true};
  // All neighbours replaced by the centre -> Gaussian fixed point,
  // Laplacian zero.
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple)),
            50);
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            0);
}

TEST(WeightedKernels, GaussianEndToEndMatchesReference) {
  ProblemSpec p;
  p.height = 12;
  p.width = 12;
  p.shape = grid::StencilShape::moore9();
  p.bc = grid::BoundarySpec::all_mirror();
  p.kernel = rtl::KernelSpec::gaussian3x3();
  p.steps = 3;
  const auto img = random_image(12, 61);
  for (auto arch : {Architecture::Smache, Architecture::Baseline}) {
    EngineOptions opts;
    opts.arch = arch;
    EXPECT_EQ(Engine(opts).run(p, img).output, reference_run(p, img))
        << to_string(arch);
  }
}

TEST(WeightedKernels, LaplacianEndToEndMatchesReference) {
  ProblemSpec p;
  p.height = 10;
  p.width = 14;
  p.shape = grid::StencilShape::moore9();
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::laplacian3x3();
  p.steps = 2;
  const auto img = random_image(14, 62);
  grid::Grid<word_t> init(10, 14);
  for (std::size_t r = 0; r < 10; ++r)
    for (std::size_t c = 0; c < 14; ++c) init.at(r, c) = img.at(r, c);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(WeightedKernels, RejectsNonMooreTuples) {
  std::vector<grid::TupleElem> tuple(4);
  EXPECT_THROW(rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple),
               contract_error);
}

TEST(WeightedKernels, NamesAreDescriptive) {
  EXPECT_EQ(rtl::KernelSpec::gaussian3x3().name(), "gaussian3x3/i32");
  EXPECT_EQ(rtl::KernelSpec::laplacian3x3().name(), "laplacian3x3/i32");
}

}  // namespace
}  // namespace smache
