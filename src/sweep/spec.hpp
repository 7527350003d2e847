// SweepSpec — a declarative description of a cartesian scenario space:
// architecture x stream implementation x hybrid threshold x grid size x
// DRAM model x step count x cascade depth x stencil family x boundary
// family x kernel x input generator. The spec expands into flat,
// self-contained Scenario
// records (cursor logic: any index in [0, scenario_count()) decodes to its
// scenario without materialising the rest), which is what the executor,
// the CLI and the bench drivers consume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/problem.hpp"

namespace smache::sweep {

/// What each scenario runs: a full simulation, or elaboration/cost-model
/// only (the Table-I-style resource studies — no cycles, no input data).
enum class Mode { Simulate, ElaborateOnly };

const char* to_string(Mode mode) noexcept;

/// Grid (or tile-mesh) dimensions. `depth` is the slice extent (grids) or
/// the slice-axis tile count (meshes); it is a third member with a 1
/// default so every 2D `{h, w}` brace initialiser keeps its meaning.
struct GridDim {
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t depth = 1;
  /// As a tile mesh: more than one tile, i.e. not the untiled engine.
  bool split() const noexcept { return height > 1 || width > 1 || depth > 1; }
  friend bool operator==(const GridDim&, const GridDim&) = default;
};

/// The one `HxW` / `HxWxD` token (labels, seed keys, spec files, report
/// tile cells). Depth-1 dims omit the xD segment, so every 2D token — and
/// with it every 2D label, seed and store key — reads as it did before the
/// slice axis existed. parse_grid accepts both forms.
std::string to_string(const GridDim& dim);

/// One fully-resolved point of the scenario space, ready to run.
struct Scenario {
  std::size_t index = 0;   // position in the cartesian order
  std::string label;       // canonical human/machine identifier
  Mode mode = Mode::Simulate;
  /// Deterministic seed derived from the workload identity (grid, steps,
  /// stencil, boundary, kernel, input family) and the spec's base_seed:
  /// scenarios differing only in architecture / stream impl / threshold /
  /// DRAM model / mode share the seed, so comparisons across those
  /// dimensions run the identical input data.
  std::uint64_t seed = 0;
  EngineOptions engine;
  ProblemSpec problem;     // shape/bc/kernel resolved from the registry
  std::string stencil;     // registry names, kept for reporting
  std::string boundary;
  std::string kernel;
  std::string input;       // input-family name (ignored by ElaborateOnly)
  std::string dram;
  /// Temporal-blocking (cascade) depth: time steps fused per DRAM pass.
  /// 1 = the per-instance Smache/baseline engine (Engine::run); > 1 routes
  /// through Engine::run_cascade. The decode aliases depth to 1 for the
  /// baseline architecture and for elaborate-only mode (neither has a
  /// cascade), so sweeping depths never duplicates those configurations.
  std::size_t depth = 1;
  /// Spatial tiling mesh (height = tile rows, width = tile cols, depth =
  /// slice tiles), run through Engine::run_tiled; 1x1 is the untiled
  /// engine (run_tiled runs it as run / run_cascade).
  /// Aliased to 1x1 for elaborate-only mode (no cycles to parallelise);
  /// output grids are bit-identical across tilings by construction.
  GridDim tiles{1, 1};
};

/// An axis added to the scenario space after reports and store segments
/// existed. Every scenario encoding — the sweep digest, the store key, the
/// JSON row, the CSV columns — carries an extension axis only where its
/// value is > 1, so the value 1 encodes exactly as before the axis existed.
struct ExtensionAxis {
  const char* name;  // JSON key and CSV column
  std::size_t (*value)(const Scenario&);
};

/// In canonical order: encoders fold and emit the axes in table order, so
/// adding an axis is one row appended here (reordering rows would move the
/// digest, key and report of every scenario that sets both).
inline constexpr ExtensionAxis kExtensionAxes[] = {
    // Words per cell (F, the kernel's cell layout).
    {"fields",
     [](const Scenario& s) -> std::size_t {
       return s.problem.kernel.fields();
     }},
    // Grid slices (D; "depth" in reports is the cascade depth).
    {"slices",
     [](const Scenario& s) -> std::size_t { return s.problem.depth; }},
};

struct SweepSpec {
  Mode mode = Mode::Simulate;
  std::vector<Architecture> archs = {Architecture::Smache};
  std::vector<model::StreamImpl> impls = {model::StreamImpl::Hybrid};
  std::vector<std::size_t> thresholds = {4};
  std::vector<GridDim> grids = {{11, 11}};
  std::vector<std::string> drams = {"functional"};
  std::vector<std::size_t> steps = {1};
  /// Cascade depths (temporal blocking: fused time steps per DRAM pass).
  /// Every steps x depths pairing must divide evenly — validate() rejects
  /// the spec otherwise. Depth > 1 requires boundaries whose tuples
  /// resolve in-stream (open/mirror/constant); a periodic boundary paired
  /// with depth > 1 is captured as that scenario's runtime error.
  std::vector<std::size_t> depths = {1};
  /// Spatial tiling meshes (halo-exchange tiles, grid/tiling.hpp). Tile
  /// counts exceeding the grid extent are rejected by validate(); pairings
  /// the tiler cannot make exact (e.g. mirror tiles smaller than the
  /// reflected reach) surface as that scenario's deterministic runtime
  /// error, exactly like periodic x depth>1.
  std::vector<GridDim> tiles = {{1, 1}};
  std::vector<std::string> stencils = {"vn4"};
  std::vector<std::string> boundaries = {"paper"};
  std::vector<std::string> kernels = {"average"};
  std::vector<std::string> inputs = {"random"};
  /// Folded with each scenario's workload identity into its per-job seed:
  /// distinct workloads get distinct, reproducible seeds that do not
  /// depend on expansion order, thread count, or the other dimensions'
  /// contents (see Scenario::seed).
  std::uint64_t base_seed = 1;
  /// Simulation watchdog forwarded to EngineOptions.
  std::uint64_t max_cycles = 200'000'000;
  /// Result-store directory (crash-safe resume + memoization; see
  /// sweep/store.hpp). Empty = no store. Carried in the spec so a saved
  /// spec names its own durability location and a resumed run cannot pair
  /// the wrong store with the wrong sweep; the CLI's --store overrides it.
  std::string store_dir;

  /// Cartesian size (including aliased points that expand() collapses).
  std::size_t scenario_count() const;

  /// Decode one cartesian index (cursor logic — O(dims), no expansion).
  /// Throws contract_error if the spec is malformed or index out of range.
  Scenario scenario_at(std::size_t index) const;

  /// All DISTINCT scenarios in cartesian order: points whose label aliases
  /// an earlier one are dropped (the baseline ignores stream impl,
  /// threshold and cascade depth; Case-R ignores threshold; elaboration
  /// ignores the DRAM model, input family, cascade depth and tiling
  /// mesh), so sweeping those dimensions never runs the same
  /// configuration twice.
  std::vector<Scenario> expand() const;

  /// Throws contract_error with a descriptive message if any dimension is
  /// empty, a registry name is unknown, a kernel/stencil pairing is
  /// invalid, or any scenario's problem fails ProblemSpec::validate().
  void validate() const;
};

// ---- strict spec parsing (the smache-sweep CLI and its tests) ----
// All parsers throw contract_error with a descriptive message on malformed
// input; none of them silently guess.

/// Split a comma-separated list; empty items (",," or a trailing comma)
/// are malformed. An empty string yields an empty vector.
std::vector<std::string> split_list(std::string_view csv);

Architecture parse_arch(std::string_view token);       // smache | baseline
model::StreamImpl parse_impl(std::string_view token);  // hybrid | reg
Mode parse_mode(std::string_view token);               // sim | elab
/// "16" (square), "16x32", or "16x32x8" (3D: HxWxD). Every axis must be a
/// positive integer; errors name the full offending token.
GridDim parse_grid(std::string_view token);
std::size_t parse_count(std::string_view token, const char* what);

/// Full-range unsigned 64-bit parse (0 allowed — seeds use the whole
/// domain). Rejects signs, leading/trailing junk and overflow.
std::uint64_t parse_u64(std::string_view token, const char* what);

}  // namespace smache::sweep
