#include "sweep/spec.hpp"

#include <charconv>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/fnv.hpp"
#include "sweep/workloads.hpp"

namespace smache::sweep {

const char* to_string(Mode mode) noexcept {
  return mode == Mode::Simulate ? "sim" : "elab";
}

std::string to_string(const GridDim& dim) {
  std::string s =
      std::to_string(dim.height) + 'x' + std::to_string(dim.width);
  if (dim.depth > 1) s += 'x' + std::to_string(dim.depth);
  return s;
}

namespace {

/// splitmix64 finalizer: diffuses the (base_seed, label-hash) fold so
/// near-identical labels still land on unrelated seeds.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t label_hash) {
  std::uint64_t z = base ^ label_hash;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* impl_tag(model::StreamImpl impl) noexcept {
  return impl == model::StreamImpl::RegisterOnly ? "reg" : "hyb";
}

}  // namespace

std::size_t SweepSpec::scenario_count() const {
  return archs.size() * impls.size() * thresholds.size() * grids.size() *
         drams.size() * steps.size() * depths.size() * tiles.size() *
         stencils.size() * boundaries.size() * kernels.size() *
         inputs.size();
}

Scenario SweepSpec::scenario_at(std::size_t index) const {
  SMACHE_REQUIRE_MSG(
      !archs.empty() && !impls.empty() && !thresholds.empty() &&
          !grids.empty() && !drams.empty() && !steps.empty() &&
          !depths.empty() && !tiles.empty() && !stencils.empty() &&
          !boundaries.empty() && !kernels.empty() && !inputs.empty(),
      "every sweep dimension needs at least one entry");
  SMACHE_REQUIRE_MSG(index < scenario_count(),
                     "scenario index out of range");

  // Mixed-radix decode, innermost (fastest-varying) dimension first. The
  // nesting order is part of the spec's contract: arch is outermost, input
  // innermost.
  std::size_t rest = index;
  const auto take = [&rest](std::size_t radix) {
    const std::size_t digit = rest % radix;
    rest /= radix;
    return digit;
  };
  const std::string& input_name = inputs[take(inputs.size())];
  const std::string& kernel_name = kernels[take(kernels.size())];
  const std::string& boundary_name = boundaries[take(boundaries.size())];
  const std::string& stencil_name = stencils[take(stencils.size())];
  const GridDim tiles_raw = tiles[take(tiles.size())];
  const std::size_t depth_raw = depths[take(depths.size())];
  const std::size_t step_count = steps[take(steps.size())];
  const std::string& dram_name = drams[take(drams.size())];
  const GridDim grid = grids[take(grids.size())];
  const std::size_t threshold = thresholds[take(thresholds.size())];
  const model::StreamImpl impl = impls[take(impls.size())];
  const Architecture arch = archs[take(archs.size())];

  SMACHE_REQUIRE_MSG(threshold >= 3,
                     "bram segment thresholds below 3 are unplannable");
  SMACHE_REQUIRE_MSG(step_count >= 1, "steps must be >= 1");
  SMACHE_REQUIRE_MSG(depth_raw >= 1, "cascade depth must be >= 1");
  SMACHE_REQUIRE_MSG(tiles_raw.height >= 1 && tiles_raw.width >= 1 &&
                         tiles_raw.depth >= 1,
                     "tile counts must be >= 1");
  // Statically knowable from the spec's dimensions (like steps % depth),
  // so reject the whole spec; geometry-dependent tiling failures (mirror
  // reach, padded extent vs. stencil span) stay per-scenario runtime
  // errors. A slice-axis tile count over a 2D grid is caught here too
  // (tiles 1x1x2 over 16x16 is 2 tiles over 1 slice).
  SMACHE_REQUIRE_MSG(tiles_raw.height <= grid.height &&
                         tiles_raw.width <= grid.width &&
                         tiles_raw.depth <= grid.depth,
                     "tiles=" + to_string(tiles_raw) +
                         " exceeds the grid extent " + to_string(grid));
  // Checked on the RAW pairing, before aliasing: a spec that pairs an
  // indivisible steps/depth combination is malformed even where the depth
  // would be ignored — "reject loudly" beats "run something else".
  SMACHE_REQUIRE_MSG(
      step_count % depth_raw == 0,
      "steps=" + std::to_string(step_count) +
          " is not a multiple of cascade depth=" +
          std::to_string(depth_raw) +
          " (each pass fuses exactly `depth` time steps, so every steps x "
          "depths pairing in the sweep must divide evenly)");

  const KernelFamily& kernel = find_kernel(kernel_name);
  if (kernel.needs_moore9)
    SMACHE_REQUIRE_MSG(stencil_name == "moore9",
                       "kernel '" + kernel_name +
                           "' assumes the Moore-9 tuple layout; pair it "
                           "with stencil 'moore9'");
  // Cell layouts must agree end to end: a simulated scenario materialises
  // the input family's grid, whose words-per-cell count must match what
  // the kernel consumes. (Elaboration never builds an input, so any input
  // name aliases through.) Centre-first kernels are checked against the
  // materialised stencil by ProblemSpec::validate below.
  if (mode == Mode::Simulate) {
    const InputFamily& input = find_input(input_name);
    SMACHE_REQUIRE_MSG(
        input.fields == kernel.spec.fields(),
        "input family '" + input_name + "' produces " +
            std::to_string(input.fields) + "-field cells but kernel '" +
            kernel_name + "' consumes " +
            std::to_string(kernel.spec.fields()) +
            "-field cells; pair layouts exactly");
  }

  // Depth is a cascade-architecture knob: the baseline has no cascade and
  // elaboration runs no passes, so both alias every depth to 1 (the label
  // omits the segment and expand() collapses the duplicates).
  const std::size_t depth =
      (arch == Architecture::Smache && mode == Mode::Simulate) ? depth_raw
                                                               : 1;
  // Tiling is an execution knob: elaboration runs no cycles, so every mesh
  // aliases to the untiled point there. Both architectures tile.
  const GridDim tile_mesh =
      mode == Mode::Simulate ? tiles_raw : GridDim{1, 1, 1};

  Scenario s;
  s.index = index;
  s.mode = mode;
  s.stencil = stencil_name;
  s.boundary = boundary_name;
  s.kernel = kernel_name;
  s.input = input_name;
  s.dram = dram_name;
  s.depth = depth;
  s.tiles = tile_mesh;

  // Canonical label. Dimensions a configuration IGNORES are omitted, which
  // is exactly what lets expand() drop aliased points: the baseline has no
  // stream buffer (no impl/threshold) and no cascade (no depth), Case-R
  // has no BRAM segments (no threshold), and elaboration runs no cycles
  // (no DRAM model, no input, no depth). Depth 1 is the per-instance
  // engine, labelled exactly as before the dimension existed.
  s.label = to_string(mode);
  s.label += '/';
  s.label += to_string(arch);
  if (arch == Architecture::Smache) {
    s.label += '/';
    s.label += impl_tag(impl);
    if (impl == model::StreamImpl::Hybrid)
      s.label += "-t" + std::to_string(threshold);
  }
  if (depth > 1) s.label += "/d" + std::to_string(depth);
  // 1x1 is the untiled engine, labelled exactly as before the dimension
  // existed (and collapsed by expand() wherever tiling is aliased away).
  if (tile_mesh.split()) s.label += "/t" + to_string(tile_mesh);
  s.label += '/' + to_string(grid);
  if (mode == Mode::Simulate) s.label += '/' + dram_name;
  s.label += "/s" + std::to_string(step_count);
  s.label += '/' + stencil_name;
  s.label += '/' + boundary_name;
  s.label += '/' + kernel_name;
  if (mode == Mode::Simulate) s.label += '/' + input_name;

  // The seed is derived from the WORKLOAD identity only (grid, steps,
  // stencil, boundary, kernel, input family): scenarios that differ just
  // in architecture, stream impl, threshold, cascade depth, DRAM model or
  // mode share it,
  // so comparisons across those dimensions run the identical data — and a
  // seeded stencil family materialises from its own name alone, so e.g. a
  // threshold ablation over random8 sweeps ONE shape, not eight.
  const std::string workload_key =
      to_string(grid) + "/s" + std::to_string(step_count) + '/' +
      stencil_name + '/' + boundary_name + '/' + kernel_name + '/' +
      input_name;
  s.seed = mix_seed(base_seed, Fnv1a().bytes(workload_key).value());

  s.problem.height = grid.height;
  s.problem.width = grid.width;
  s.problem.depth = grid.depth;
  s.problem.shape = make_stencil(
      stencil_name,
      mix_seed(base_seed, Fnv1a().bytes("stencil/" + stencil_name).value()));
  s.problem.bc = make_boundary(boundary_name);
  s.problem.kernel = kernel.spec;
  s.problem.steps = step_count;
  s.problem.validate();

  s.engine.arch = arch;
  s.engine.stream_impl = impl;
  s.engine.bram_segment_threshold = threshold;
  s.engine.dram = make_dram(dram_name);
  s.engine.max_cycles = max_cycles;
  return s;
}

std::vector<Scenario> SweepSpec::expand() const {
  const std::size_t n = scenario_count();
  std::vector<Scenario> out;
  out.reserve(n);
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < n; ++i) {
    Scenario s = scenario_at(i);
    if (!seen.insert(s.label).second) continue;  // alias of an earlier point
    out.push_back(std::move(s));
  }
  return out;
}

void SweepSpec::validate() const {
  const std::size_t n = scenario_count();
  SMACHE_REQUIRE_MSG(n >= 1,
                     "every sweep dimension needs at least one entry");
  for (std::size_t i = 0; i < n; ++i) (void)scenario_at(i);
}

std::vector<std::string> split_list(std::string_view csv) {
  std::vector<std::string> out;
  if (csv.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    const std::string_view item =
        csv.substr(start, comma == std::string_view::npos ? csv.npos
                                                          : comma - start);
    SMACHE_REQUIRE_MSG(!item.empty(),
                       "empty item in list '" + std::string(csv) + "'");
    out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

Architecture parse_arch(std::string_view token) {
  if (token == "smache") return Architecture::Smache;
  if (token == "baseline") return Architecture::Baseline;
  throw contract_error("unknown architecture '" + std::string(token) +
                       "' (smache | baseline)");
}

model::StreamImpl parse_impl(std::string_view token) {
  if (token == "hybrid") return model::StreamImpl::Hybrid;
  if (token == "reg" || token == "register-only")
    return model::StreamImpl::RegisterOnly;
  throw contract_error("unknown stream impl '" + std::string(token) +
                       "' (hybrid | reg)");
}

Mode parse_mode(std::string_view token) {
  if (token == "sim") return Mode::Simulate;
  if (token == "elab") return Mode::ElaborateOnly;
  throw contract_error("unknown sweep mode '" + std::string(token) +
                       "' (sim | elab)");
}

std::size_t parse_count(std::string_view token, const char* what) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size() || value == 0)
    throw contract_error("malformed " + std::string(what) + " '" +
                         std::string(token) +
                         "' (want a positive integer)");
  return value;
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw contract_error("malformed " + std::string(what) + " '" +
                         std::string(token) +
                         "' (want an unsigned 64-bit integer)");
  return value;
}

GridDim parse_grid(std::string_view token) {
  // Errors always name the FULL token: "16x0" must report '16x0', not the
  // bare '0' the axis parse saw — a sweep flag carries many tokens and the
  // user needs to know which one is malformed.
  const auto reject = [&](const char* why) -> std::size_t {
    throw contract_error("malformed grid size '" + std::string(token) +
                         "' (" + why + "; want H, HxW or HxWxD with every "
                         "axis a positive integer)");
  };
  const auto axis = [&](std::string_view part,
                        const char* what) -> std::size_t {
    std::size_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc{} || ptr != part.data() + part.size())
      return reject(what);
    if (value == 0) return reject("0 is not a valid axis extent");
    return value;
  };
  const std::size_t x1 = token.find('x');
  if (x1 == std::string_view::npos) {
    const std::size_t n = axis(token, "not an integer");
    return GridDim{n, n};
  }
  const std::size_t x2 = token.find('x', x1 + 1);
  const std::size_t h = axis(token.substr(0, x1), "bad height");
  if (x2 == std::string_view::npos)
    return GridDim{h, axis(token.substr(x1 + 1), "bad width")};
  if (token.find('x', x2 + 1) != std::string_view::npos)
    reject("too many axes");
  return GridDim{h, axis(token.substr(x1 + 1, x2 - x1 - 1), "bad width"),
                 axis(token.substr(x2 + 1), "bad depth")};
}

}  // namespace smache::sweep
