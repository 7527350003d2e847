// smache-sweep — batch scenario execution over the named workload registry.
//
// Expands a cartesian SweepSpec (architecture x stream impl x grid x DRAM
// model x steps x cascade depth x tile mesh x stencil x boundary x kernel
// x input),
// runs every distinct scenario on a worker pool (one independent Engine
// per scenario), and writes deterministic JSON/CSV reports whose content
// is bit-identical for any thread count.
//
// Default sweep: 4 stencil shapes x 3 boundary families x 2 grids, 3
// work-instances each — 24 scenario points.
//
// Sweeps are reproducible from spec files: --save-spec writes the resolved
// spec as JSON, --spec re-runs exactly that experiment (same labels, same
// seeds, same digest). --spec replaces the whole spec, so combining it
// with any dimension flag is an error, not a silent merge.
//
// Examples:
//   smache-sweep                            # default sweep, auto threads
//   smache-sweep --threads 4 --verify-serial --out sweep.json
//   smache-sweep --stencils random8,moore9 --boundaries island,striped
//                --grids 11,16x24 --steps 2,5 --verify-reference
//   smache-sweep --boundaries open,island --steps 12 --depths 1,2,3,4
//   smache-sweep --mode elab --impls reg,hybrid --thresholds 3,4,16
//   smache-sweep --steps 6 --depths 1,2 --save-spec experiment.json
//   smache-sweep --spec experiment.json     # reproduce the digest above
//   smache-sweep --list                     # print the workload catalogue
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "sweep/spec.hpp"
#include "sweep/specio.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

using namespace smache;

namespace {

/// SIGINT -> cooperative stop: scenarios not yet started are skipped, the
/// worker pool drains, and everything already completed is flushed to the
/// store and the reports before exit (code 130). A second Ctrl-C behaves
/// the same — the flag is already set, so shutdown stays graceful.
std::atomic<bool> g_stop{false};

void handle_sigint(int) { g_stop.store(true); }

void print_catalogue() {
  std::printf("registered workload families (one sweep dimension each):\n");
  TextTable stencils({"stencil", "dims", "summary"});
  for (const auto& f : sweep::stencil_catalogue()) {
    stencils.begin_row();
    stencils.add_cell(f.name + (f.seeded ? " (seeded)" : ""));
    // Dimensionality from the shape itself (seed 0 for seeded families —
    // the random families draw offsets on the 2D axes only).
    const grid::StencilShape shape = f.make(0);
    stencils.add_cell(shape.ds_min() != 0 || shape.ds_max() != 0 ? "3D"
                                                                 : "2D");
    stencils.add_cell(f.summary);
  }
  std::printf("%s\n", stencils.to_ascii().c_str());
  TextTable bounds({"boundary", "summary"});
  for (const auto& f : sweep::boundary_catalogue()) {
    bounds.begin_row();
    bounds.add_cell(f.name);
    bounds.add_cell(f.summary);
  }
  std::printf("%s\n", bounds.to_ascii().c_str());
  TextTable kernels({"kernel", "fields", "arity", "summary"});
  for (const auto& f : sweep::kernel_catalogue()) {
    kernels.begin_row();
    kernels.add_cell(f.name);
    kernels.add_cell(std::to_string(f.spec.fields()));
    kernels.add_cell(f.needs_moore9 ? "moore9" : "any");
    kernels.add_cell(f.summary);
  }
  std::printf("%s\n", kernels.to_ascii().c_str());
  TextTable inputs({"input", "fields", "summary"});
  for (const auto& f : sweep::input_catalogue()) {
    inputs.begin_row();
    inputs.add_cell(f.name);
    inputs.add_cell(std::to_string(f.fields));
    inputs.add_cell(f.summary);
  }
  std::printf("%s\n", inputs.to_ascii().c_str());
  TextTable drams({"dram", "summary"});
  for (const auto& f : sweep::dram_catalogue()) {
    drams.begin_row();
    drams.add_cell(f.name);
    drams.add_cell(f.summary);
  }
  std::printf("%s\n", drams.to_ascii().c_str());
}

template <typename Parse>
auto parse_dim(const CliArgs& args, const std::string& flag,
               const std::string& fallback, Parse parse) {
  const auto items = sweep::split_list(args.get_string(flag, fallback));
  std::vector<decltype(parse(items.front()))> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(parse(item));
  return out;
}

/// Every flag that shapes the SweepSpec. --spec replaces the whole spec,
/// so pairing it with any of these is rejected rather than silently
/// merged.
const char* const kSpecFlags[] = {
    "mode",  "archs",  "impls",    "thresholds", "grids",
    "drams", "dram",   "steps",    "depths",     "tiles",
    "stencils",        "boundaries",             "kernels",
    "inputs",          "seed",     "max-cycles"};

sweep::SweepSpec spec_from_args(const CliArgs& args) {
  sweep::SweepSpec spec;
  spec.mode = sweep::parse_mode(args.get_string("mode", "sim"));
  spec.archs = parse_dim(args, "archs", "smache",
                         [](const std::string& s) {
                           return sweep::parse_arch(s);
                         });
  spec.impls = parse_dim(args, "impls", "hybrid",
                         [](const std::string& s) {
                           return sweep::parse_impl(s);
                         });
  spec.thresholds = parse_dim(args, "thresholds", "4",
                              [](const std::string& s) {
                                return sweep::parse_count(s, "threshold");
                              });
  // The acceptance sweep: 4 stencil shapes x 3 boundary families x 2 grids.
  spec.grids = parse_dim(args, "grids", "11,16",
                         [](const std::string& s) {
                           return sweep::parse_grid(s);
                         });
  // --drams is the canonical spelling; the historical singular --dram is
  // kept as an accepted alias. Passing both is rejected, not resolved by
  // precedence — "reject loudly" beats "run something else".
  if (args.has("drams") && args.has("dram"))
    throw contract_error("--drams and its alias --dram are the same flag; "
                         "pass only one");
  spec.drams = sweep::split_list(
      args.has("drams") ? args.get_string("drams", "functional")
                        : args.get_string("dram", "functional"));
  spec.steps = parse_dim(args, "steps", "3", [](const std::string& s) {
    return sweep::parse_count(s, "step count");
  });
  spec.depths = parse_dim(args, "depths", "1", [](const std::string& s) {
    return sweep::parse_count(s, "cascade depth");
  });
  // "2x3" = 2 tile rows x 3 tile cols; a bare "2" is a 2x2 mesh (same
  // shorthand as --grids). 1 (the default) is the untiled engine.
  spec.tiles = parse_dim(args, "tiles", "1", [](const std::string& s) {
    return sweep::parse_grid(s);
  });
  spec.stencils = sweep::split_list(
      args.get_string("stencils", "vn4,moore9,diamond13,cross3"));
  spec.boundaries = sweep::split_list(
      args.get_string("boundaries", "paper,circular,island"));
  spec.kernels = sweep::split_list(args.get_string("kernels", "average"));
  spec.inputs = sweep::split_list(args.get_string("inputs", "random"));
  // Full 64-bit parses: get_int would funnel these through int64 and make
  // seeds/watchdogs above 2^63 unrepresentable.
  spec.base_seed = sweep::parse_u64(args.get_string("seed", "1"), "seed");
  spec.max_cycles = sweep::parse_u64(
      args.get_string("max-cycles", "200000000"), "max-cycles");
  if (spec.max_cycles == 0)
    throw contract_error("malformed max-cycles '0' (the simulation "
                         "watchdog must be >= 1)");
  return spec;
}

sweep::SweepSpec resolve_spec(const CliArgs& args) {
  const std::string spec_path = args.get_string("spec", "");
  // A present-but-valueless --spec (filename omitted or swallowed by the
  // next flag) must not silently fall back to the default sweep.
  if (args.has("spec") && spec_path.empty())
    throw contract_error("--spec needs a filename");
  if (spec_path.empty()) return spec_from_args(args);
  for (const char* flag : kSpecFlags)
    if (args.has(flag))
      throw contract_error("--spec replaces the whole sweep spec; drop "
                           "--" + std::string(flag) +
                           " (edit the spec file instead)");
  return sweep::load_spec_file(spec_path);
}

/// Strict parse of a count flag: a sign, junk, overflow or a value above
/// `max` throws an error naming the flag. 0 passes through (it means "all
/// cores" or "off" to the caller).
std::uint64_t count_flag(const CliArgs& args, const std::string& flag,
                         const char* fallback, std::uint64_t max) {
  const std::string name = "--" + flag;
  const std::uint64_t value =
      sweep::parse_u64(args.get_string(flag, fallback), name.c_str());
  if (value > max)
    throw contract_error("malformed " + name + " '" + std::to_string(value) +
                         "' (at most " + std::to_string(max) + ")");
  return value;
}

double run_wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "smache-sweep: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"list", "verify-serial", "verify-reference",
                      "no-wall", "quiet", "resume", "fail-on-error",
                      "metrics", "progress"});
  if (args.has("help")) {
    std::printf(
        "usage: smache-sweep [--threads N] [--mode sim|elab]\n"
        "  [--archs smache,baseline] [--impls hybrid,reg]\n"
        "  [--thresholds 4,...] [--grids 11,16x24,16x16x8,...]\n"
        "  [--drams functional,ddr,stall] [--steps 3,...]\n"
        "  [--depths 1,2,...] [--tiles 1,2x2,...] [--tile-threads N]\n"
        "  [--stencils ...] [--boundaries ...]\n"
        "  [--kernels ...] [--inputs ...] [--seed N] [--max-cycles N]\n"
        "  [--spec experiment.json] [--save-spec experiment.json]\n"
        "  [--out report.json] [--csv report.csv] [--no-wall]\n"
        "  [--store DIR] [--resume] [--timeout-ms N]\n"
        "  [--metrics] [--trace-out DIR] [--progress]\n"
        "  [--fail-on-error[=false]]\n"
        "  [--verify-serial] [--verify-reference] [--list] [--quiet]\n"
        "--depths sweeps the cascade (temporal-blocking) depth: each\n"
        "scenario fuses that many time steps per DRAM pass (depth 1 = the\n"
        "per-instance engine); every steps value must divide by every\n"
        "depth. --tiles sweeps the halo-exchange tile mesh (\"2x3\" = 2\n"
        "tile rows x 3 tile cols, \"2x2x2\" adds slice-axis tiles for 3D\n"
        "grids, bare \"2\" = 2x2, 1 = untiled) and\n"
        "--tile-threads sets the worker count INSIDE each tiled scenario\n"
        "(0 = all cores); outputs are bit-identical across meshes and\n"
        "thread counts. --save-spec writes the resolved spec as JSON;\n"
        "--spec re-runs exactly that experiment (exclusive with dimension\n"
        "flags).\n"
        "--store DIR journals every finished scenario into a crash-safe\n"
        "result store: re-running the same (or a widened) sweep skips\n"
        "everything already completed and executes only the delta, so a\n"
        "killed sweep resumes from its last finished scenario. --resume is\n"
        "the same plus a safety rail: the store directory must already\n"
        "exist (catches a mistyped path that would silently start cold).\n"
        "A spec file can carry its store via the \"store\" key; --store\n"
        "overrides it. --timeout-ms arms a per-scenario wall-clock\n"
        "watchdog (nondeterministic by nature: tripped scenarios are\n"
        "reported but never stored). --metrics profiles every executed\n"
        "scenario (cycle attribution, stall counters, FIFO high-water\n"
        "marks) and adds a metrics column to the reports — simulated\n"
        "results and digests are bit-identical with or without it. The\n"
        "metrics and store_hit columns are wall-class (store hits carry no\n"
        "snapshot), so --no-wall drops them too. --trace-out DIR writes a\n"
        "Chrome trace-event JSON (chrome://tracing / Perfetto) per\n"
        "executed untiled scenario. --progress prints a live done/total\n"
        "line with an ETA to stderr. --fail-on-error (default on) exits\n"
        "non-zero when any scenario captured an error; =false downgrades\n"
        "captured errors to report entries for sweeps that intentionally\n"
        "include invalid pairings. Ctrl-C stops gracefully: running\n"
        "scenarios finish, the rest are skipped, completed results are\n"
        "flushed to the store and reports, exit code 130.\n");
    return 0;
  }
  if (args.get_bool("list", false)) {
    print_catalogue();
    return 0;
  }

  // Worker counts and the watchdog are checked before anything runs: a
  // negative or malformed value must not become SIZE_MAX workers or a
  // 49-day timeout.
  sweep::ExecutorOptions opts;
  try {
    opts.threads = count_flag(args, "threads", "0", SIZE_MAX);
    // Intra-scenario parallelism: workers for each tiled scenario's
    // per-pass tile loop. Defaults to 1 (serial tiles) so scenario-level
    // parallelism is not oversubscribed unless explicitly requested.
    opts.tile_threads = count_flag(args, "tile-threads", "1", SIZE_MAX);
    opts.wall_timeout_ms = static_cast<std::uint32_t>(
        count_flag(args, "timeout-ms", "0", UINT32_MAX));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smache-sweep: %s\n", e.what());
    return 2;
  }
  if (opts.threads == 0) opts.threads = hardware_threads();
  if (opts.tile_threads == 0) opts.tile_threads = hardware_threads();

  sweep::SweepSpec spec;
  try {
    spec = resolve_spec(args);
    spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smache-sweep: malformed sweep spec: %s\n",
                 e.what());
    return 2;
  }

  // The store location comes from the spec file (its "store" key) unless
  // --store overrides it; --resume additionally demands the directory
  // already exists, so a mistyped path fails loudly instead of silently
  // starting a cold store.
  if (args.has("store")) {
    spec.store_dir = args.get_string("store", "");
    if (spec.store_dir.empty()) {
      std::fprintf(stderr, "smache-sweep: --store needs a directory\n");
      return 2;
    }
  }
  const bool resume = args.get_bool("resume", false);
  if (resume && spec.store_dir.empty()) {
    std::fprintf(stderr,
                 "smache-sweep: --resume needs a store (--store DIR or a "
                 "spec with a \"store\" key)\n");
    return 2;
  }

  const std::string save_spec_path = args.get_string("save-spec", "");
  if (args.has("save-spec") && save_spec_path.empty()) {
    std::fprintf(stderr, "smache-sweep: --save-spec needs a filename\n");
    return 2;
  }
  if (!save_spec_path.empty()) {
    try {
      sweep::save_spec_file(spec, save_spec_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "smache-sweep: %s\n", e.what());
      return 2;
    }
    std::printf("wrote %s\n", save_spec_path.c_str());
  }

  opts.verify_reference = args.get_bool("verify-reference", false);
  opts.metrics = args.get_bool("metrics", false);
  const std::string trace_dir = args.get_string("trace-out", "");
  if (args.has("trace-out") && trace_dir.empty()) {
    std::fprintf(stderr, "smache-sweep: --trace-out needs a directory\n");
    return 2;
  }
  opts.trace = !trace_dir.empty();
  if (args.get_bool("progress", false)) {
    opts.progress = [](const sweep::SweepProgress& p) {
      std::fprintf(stderr,
                   "\rsweep: %zu/%zu done (%zu store hit(s), %zu executed, "
                   "%zu failed, %zu skipped) eta %.1fs ",
                   p.done, p.total, p.store_hits, p.executed, p.failed,
                   p.skipped, p.eta_ms / 1000.0);
      std::fflush(stderr);
    };
  }

  std::unique_ptr<sweep::ResultStore> store;
  if (!spec.store_dir.empty()) {
    try {
      if (resume && !sweep::real_file_io().exists(spec.store_dir)) {
        std::fprintf(stderr,
                     "smache-sweep: --resume: store directory '%s' does "
                     "not exist (use --store to start a fresh one)\n",
                     spec.store_dir.c_str());
        return 2;
      }
      store = std::make_unique<sweep::ResultStore>(spec.store_dir);
    } catch (const sweep::store_io_error& e) {
      std::fprintf(stderr, "smache-sweep: %s\n", e.what());
      return 2;
    }
    opts.store = store.get();
    std::printf("store: %s — %zu cached result(s)",
                spec.store_dir.c_str(), store->size());
    if (store->dropped_records() != 0)
      std::printf(", %llu corrupt/torn record(s) dropped (those scenarios "
                  "re-execute)",
                  static_cast<unsigned long long>(store->dropped_records()));
    std::printf("\n");
  }

  opts.stop = &g_stop;
  std::signal(SIGINT, handle_sigint);

  const auto scenarios = spec.expand();
  std::printf("smache-sweep: %zu scenario point(s) (%zu cartesian), "
              "%zu thread(s)\n",
              scenarios.size(), spec.scenario_count(), opts.threads);

  std::vector<sweep::ScenarioResult> results;
  const double wall_ms = run_wall_ms(
      [&] { results = sweep::SweepExecutor(opts).run(scenarios); });
  if (opts.progress) std::fprintf(stderr, "\n");

  if (!trace_dir.empty()) {
    try {
      sweep::real_file_io().create_directories(trace_dir);
      std::size_t written = 0;
      for (const auto& r : results) {
        if (r.run.trace_json.empty()) continue;
        // Labels are filesystem-hostile by construction (they encode the
        // whole scenario); keep a conservative character set.
        std::string name = r.scenario.label;
        for (char& c : name)
          if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
              c != '.' && c != '_')
            c = '_';
        write_file(trace_dir + "/" + name + ".trace.json",
                   r.run.trace_json);
        ++written;
      }
      std::printf("wrote %zu trace file(s) to %s\n", written,
                  trace_dir.c_str());
    } catch (const sweep::store_io_error& e) {
      std::fprintf(stderr, "smache-sweep: %s\n", e.what());
      return 2;
    }
  }

  std::size_t failed = 0, mismatched = 0;
  if (!args.get_bool("quiet", false)) {
    TextTable t({"scenario", "ok", "cycles", "read KiB", "write KiB",
                 "mops", "wall ms"});
    for (const auto& r : results) {
      t.begin_row();
      t.add_cell(r.scenario.label);
      t.add_cell(std::string(r.ok ? "yes" : "FAIL"));
      t.add_cell(r.run.cycles);
      t.add_cell(format_kib(r.run.dram.bytes_read()));
      t.add_cell(format_kib(r.run.dram.bytes_written()));
      t.add_cell(r.run.mops, 1);
      t.add_cell(r.wall_ms, 2);
    }
    std::printf("%s", t.to_ascii().c_str());
  }
  std::size_t skipped = 0, from_store = 0;
  for (const auto& r : results) {
    if (r.skipped) {
      ++skipped;
    } else if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "FAIL %s: %s\n", r.scenario.label.c_str(),
                   r.error.c_str());
    } else if (r.reference_checked && !r.reference_match) {
      ++mismatched;
      std::fprintf(stderr, "REFERENCE MISMATCH %s\n",
                   r.scenario.label.c_str());
    }
    if (r.from_store) ++from_store;
  }

  const std::uint64_t digest = sweep::SweepExecutor::digest(results);
  std::printf("digest %016llx  wall %.1f ms  failed %zu\n",
              static_cast<unsigned long long>(digest), wall_ms, failed);
  if (store != nullptr) {
    const sweep::StoreStats st = store->stats();
    std::printf("store: %zu hit(s), %zu executed, %zu record(s) now "
                "persisted\n",
                from_store, results.size() - from_store - skipped,
                store->size());
    std::printf("store counters: hits %llu, misses %llu, appends %llu, "
                "retries %llu, dropped %llu\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.appends),
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.dropped));
  }

  const bool interrupted = g_stop.load();
  bool serial_diverged = false;
  // Serial verification is meaningless after an interrupt (the serial run
  // would skip everything, trivially diverging from the partial results).
  if (args.get_bool("verify-serial", false) && !interrupted) {
    sweep::ExecutorOptions serial = opts;
    serial.threads = 1;
    serial.tile_threads = 1;  // fully serial: tile pools off too
    std::vector<sweep::ScenarioResult> serial_results;
    const double serial_ms = run_wall_ms([&] {
      serial_results = sweep::SweepExecutor(serial).run(scenarios);
    });
    const sweep::EmitOptions strict;  // include_wall=false: byte comparison
    serial_diverged =
        sweep::SweepExecutor::digest(serial_results) != digest ||
        emit_json(serial_results, strict) != emit_json(results, strict) ||
        emit_csv(serial_results, strict) != emit_csv(results, strict);
    std::printf("verify-serial: %s  (parallel %.1f ms, serial %.1f ms, "
                "speedup %.2fx)\n",
                serial_diverged ? "DIVERGED" : "bit-identical", wall_ms,
                serial_ms, wall_ms > 0.0 ? serial_ms / wall_ms : 0.0);
  }

  sweep::EmitOptions emit;
  emit.include_wall = !args.get_bool("no-wall", false);
  // store_hit and metrics are wall-class columns (warm vs cold runs differ
  // there), so --no-wall keeps byte-compare reports free of both.
  emit.include_store_hit = store != nullptr && emit.include_wall;
  emit.include_metrics = opts.metrics && emit.include_wall;
  const std::string json_path = args.get_string("out", "");
  if (!json_path.empty()) {
    write_file(json_path, emit_json(results, emit));
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, emit_csv(results, emit));
    std::printf("wrote %s\n", csv_path.c_str());
  }

  if (interrupted) {
    // Completed results are already journaled (the executor stores each
    // one as it finishes) and the reports above are flushed; the exit code
    // is the conventional 128 + SIGINT.
    std::fprintf(stderr,
                 "smache-sweep: interrupted — %zu scenario(s) skipped, "
                 "completed results flushed%s\n",
                 skipped,
                 store != nullptr ? " (resume with the same --store)" : "");
    return 130;
  }

  // Captured scenario errors fail the run unless explicitly downgraded
  // (--fail-on-error=false, for sweeps that intentionally include invalid
  // pairings as data points). Reference mismatches and serial divergence
  // are always fatal — those are correctness claims, not data.
  const bool fail_on_error = args.get_bool("fail-on-error", true);
  return ((fail_on_error && failed != 0) || mismatched != 0 ||
          serial_diverged)
             ? 1
             : 0;
}
