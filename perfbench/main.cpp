// smache_perfbench — the repository's host-speed benchmark.
//
//   smache_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR]
//
// Runs one named sweep workload through SweepExecutor and prints, as the
// last line of stdout, one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones, measured
// with profiling and tracing off and timed in seconds of a reference host
// (see HostClock); with --trace 1 they are the per-layer ones, taken from
// a separate pass that drives the public calls of the sweep, core, grid
// and model layers in the executor's order and records a span around each
// call. Every run first checks the workload's outputs
// against reference_run and the closed-form DRAM traffic of every
// scenario; any failed check makes `correct` false and the exit code 1.
// Human-readable tables and findings go to stderr.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "grid/tiling.hpp"
#include "spans.hpp"
#include "sweep/emit.hpp"
#include "sweep/executor.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace fs = std::filesystem;
using smache::Architecture;
using smache::Engine;
using smache::ProblemSpec;
using smache::RunResult;
using smache::word_t;
using smache::sweep::ResultStore;
using smache::sweep::Scenario;
using smache::sweep::ScenarioResult;
using smache::sweep::SweepExecutor;
using smache::sweep::SweepSpec;
using Grid = smache::grid::Grid<word_t>;
using perfbench::Clock;
using perfbench::Span;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::vector<SweepSpec> specs;
  smache::sweep::ExecutorOptions options;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.options.threads = 1;
  w.options.tile_threads = 1;
  if (name == "stream-f1") {
    // Smache only, F=1, untiled, depth 1, functional DRAM: the per-cycle
    // simulator does nearly all the work.
    SweepSpec s;
    s.archs = {Architecture::Smache};
    s.grids = {{256, 256}};
    s.steps = {16};
    s.stencils = {"vn4", "diamond13"};
    s.boundaries = {"paper", "circular"};
    s.base_seed = seed;
    w.specs = {s};
  } else if (name == "baseline-ddr-verify") {
    // Smache beside the per-tap baseline on the row-buffer DRAM, with the
    // reference oracle inside every scenario.
    SweepSpec s;
    s.archs = {Architecture::Smache, Architecture::Baseline};
    s.grids = {{256, 256}};
    s.drams = {"ddr"};
    s.steps = {4};
    s.stencils = {"moore9", "diamond13"};
    s.boundaries = {"island", "mirror"};
    s.base_seed = seed;
    w.specs = {s};
    w.options.verify_reference = true;
  } else if (name == "temporal-tiled-multifield") {
    // Depth-4 cascades over tile meshes: 2D FDTD (F=3) and 3D Jacobi.
    SweepSpec fdtd;
    fdtd.grids = {{256, 256}};
    fdtd.steps = {8};
    fdtd.depths = {4};
    fdtd.tiles = {{2, 2}};
    fdtd.stencils = {"star5"};
    fdtd.boundaries = {"circular", "mirror"};
    fdtd.kernels = {"fdtd"};
    fdtd.inputs = {"fdtd-cavity"};
    fdtd.base_seed = seed;
    SweepSpec jacobi;
    jacobi.grids = {{64, 64, 16}};
    jacobi.steps = {8};
    jacobi.depths = {4};
    jacobi.tiles = {{2, 2, 2}};
    jacobi.stencils = {"star7"};
    jacobi.boundaries = {"open", "circular"};
    jacobi.kernels = {"jacobi"};
    jacobi.inputs = {"jacobi-init"};
    jacobi.base_seed = seed;
    w.specs = {fdtd, jacobi};
    w.options.tile_threads = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<Scenario> expand_all(const Workload& w) {
  std::vector<Scenario> all;
  for (const SweepSpec& spec : w.specs) {
    spec.validate();
    for (Scenario& s : spec.expand()) all.push_back(std::move(s));
  }
  return all;
}

bool is_tiled(const Scenario& s) {
  return s.tiles.height > 1 || s.tiles.width > 1 || s.tiles.depth > 1;
}

smache::TilingSpec tiling_of(const Scenario& s, std::size_t threads) {
  smache::TilingSpec t;
  t.tiles_r = s.tiles.height;
  t.tiles_c = s.tiles.width;
  t.tiles_s = s.tiles.depth;
  t.threads = threads;
  t.depth = s.depth;
  return t;
}

/// The tile mesh run_tiled plans for a tiled scenario.
smache::grid::TilingLayout plan_layout(const Scenario& s) {
  const ProblemSpec& p = s.problem;
  return smache::grid::plan_tiling(p.height, p.width, p.depth, s.tiles.height,
                                   s.tiles.width, s.tiles.depth, p.shape, p.bc,
                                   s.depth);
}

/// The sub-problem one tile runs for one pass of a tiled scenario.
ProblemSpec tile_problem(const Scenario& s, const smache::grid::TileGeometry& t) {
  ProblemSpec sub = s.problem;
  sub.height = t.sub_height();
  sub.width = t.sub_width();
  sub.depth = t.sub_depth();
  sub.bc = t.sub_bc;
  sub.steps = s.depth;
  return sub;
}

Grid make_input(const Scenario& s) {
  return smache::sweep::make_input(s.input, s.problem.height,
                                   s.problem.width, s.problem.depth, s.seed);
}

/// The public Engine call the executor makes for this scenario.
RunResult run_engine(const Scenario& s, const Grid& init,
                     std::size_t tile_threads) {
  const Engine engine(s.engine);
  if (is_tiled(s))
    return engine.run_tiled(s.problem, init, tiling_of(s, tile_threads));
  return s.depth > 1 ? engine.run_cascade(s.problem, init, s.depth)
                     : engine.run(s.problem, init);
}

/// Digest of one scenario's deterministic fields.
std::uint64_t scenario_digest(const ScenarioResult& r) {
  return SweepExecutor::digest(std::vector<ScenarioResult>{r});
}

bool is_failure(const ScenarioResult& r) {
  return !r.ok || (r.reference_checked && !r.reference_match);
}

/// Same record the executor journals for a finished scenario.
smache::sweep::StoredResult to_stored(const ScenarioResult& r,
                                      std::uint64_t key) {
  smache::sweep::StoredResult s;
  s.key = key;
  s.label = r.scenario.label;
  s.ok = r.ok;
  s.error = r.error;
  s.cycles = r.run.cycles;
  s.warmup_cycles = r.run.warmup_cycles;
  s.dram = r.run.dram;
  s.output_hash = r.output_hash;
  s.reference_checked = r.reference_checked;
  s.reference_match = r.reference_match;
  s.r_total = r.run.resources.r_total;
  s.b_total = r.run.resources.b_total;
  s.r_static = r.run.resources.r_static;
  s.b_static = r.run.resources.b_static;
  s.r_stream = r.run.resources.r_stream;
  s.b_stream = r.run.resources.b_stream;
  s.m20k_blocks = r.run.resources.m20k_blocks;
  s.fmax_mhz = r.run.timing.fmax_mhz;
  s.ops = r.run.ops;
  s.exec_time_us = r.run.exec_time_us;
  s.mops = r.run.mops;
  return s;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image, from VmHWM in
/// /proc/self/status (getrusage's ru_maxrss would also count the launcher's
/// footprint from before exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ------------------------------------------------------------- run context

/// Tallies and findings of one benchmark run. Every scenario execution
/// counts as attempted; a failed, reference-mismatched or non-reproducing
/// one counts as failed. Any finding makes the run incorrect.
struct Run {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> findings;

  void finding(std::string what) { findings.push_back(std::move(what)); }
  bool correct() const { return failed == 0 && findings.empty(); }

  /// Compare a re-run's results scenario by scenario, and as a whole sweep,
  /// against the checked digests.
  void reproduce(const char* leg, const std::vector<ScenarioResult>& got,
                 const std::vector<std::uint64_t>& want,
                 std::uint64_t want_digest) {
    attempted += got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (is_failure(got[i]) || scenario_digest(got[i]) != want[i]) {
        ++failed;
        finding(std::string(leg) + ": '" + got[i].scenario.label +
                "' did not reproduce the checked result" +
                (got[i].error.empty() ? "" : " (" + got[i].error + ")"));
      }
    }
    if (SweepExecutor::digest(got) != want_digest)
      finding(std::string(leg) + ": sweep digest differs from the checked one");
  }
};

std::string fresh_dir(const fs::path& work, const char* what) {
  static unsigned counter = 0;
  const fs::path dir = work / (std::string(what) + "-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

// ------------------------------------------------------- correctness gate

/// Closed-form DRAM read count of one scenario, in words:
///   baseline       taps x cells x F x steps
///   Smache depth 1 cells x F x steps + the planned static-buffer warm-up
///   cascade        cells x F x passes (per tile sub-grid when tiled)
std::uint64_t expected_words_read(const Scenario& s, const RunResult& run) {
  const ProblemSpec& p = s.problem;
  const std::uint64_t f = p.kernel.fields();
  if (is_tiled(s)) {
    std::uint64_t sub_cells = 0;
    for (const auto& t : plan_layout(s).tiles)
      sub_cells += t.sub_height() * t.sub_width() * t.sub_depth();
    return sub_cells * f * (p.steps / s.depth);
  }
  if (s.engine.arch == Architecture::Baseline)
    return p.shape.size() * p.cells() * f * p.steps;
  if (s.depth > 1) return p.cells() * f * (p.steps / s.depth);
  std::uint64_t warm = 0;
  for (const auto& b : run.plan.value().static_buffers())
    warm += b.length * (b.write_through ? 1 : p.steps);
  return (p.cells() * p.steps + warm) * f;
}

std::uint64_t compulsory_words(const Scenario& s) {
  return s.problem.cells() * s.problem.kernel.fields() * s.problem.steps;
}

struct Checked {
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> digests;  // per scenario
  std::uint64_t digest = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t words_read = 0;
  std::uint64_t compulsory = 0;
};

/// Run the workload once with outputs kept, outside every timed and traced
/// window, and compare every output grid against reference_run and every
/// DRAM read count against its closed form. Scenarios run one at a time and
/// drop their outputs once checked, so the gate holds no more grids at once
/// than one scenario of the timed sweep does.
Checked check_outputs(const Workload& w, Run& run) {
  Checked c;
  c.scenarios = expand_all(w);
  auto options = w.options;
  options.keep_outputs = true;
  std::vector<ScenarioResult> results;
  for (const Scenario& scenario : c.scenarios) {
    results.push_back(std::move(SweepExecutor(options).run({scenario}).at(0)));
    ScenarioResult& r = results.back();
    ++run.attempted;
    c.digests.push_back(scenario_digest(r));
    const Scenario& s = r.scenario;
    if (is_failure(r)) {
      ++run.failed;
      run.finding("check: '" + s.label + "' failed: " +
                  (r.error.empty() ? "reference mismatch" : r.error));
      continue;
    }
    const Grid golden = smache::reference_run(s.problem, make_input(s));
    if (golden != r.run.output.value()) {
      ++run.failed;
      run.finding("check: '" + s.label + "' output differs from reference_run");
    }
    const std::uint64_t want = expected_words_read(s, r.run);
    if (r.run.dram.words_read != want)
      run.finding("traffic: '" + s.label + "' read " +
                  std::to_string(r.run.dram.words_read) +
                  " words, closed form says " + std::to_string(want));
    c.sim_cycles += r.run.cycles;
    c.dram_bytes += r.run.dram.total_bytes();
    c.words_read += r.run.dram.words_read;
    c.compulsory += compulsory_words(s);
    r.run.output.reset();
    r.run.plan.reset();
  }
  c.digest = SweepExecutor::digest(results);
  return c;
}

// ----------------------------------------------------------- end to end
//
// A run repeats its timed legs until --seconds is spent and reports the
// median repetition. A shared host drifts between quiet and busy phases
// that last minutes: on a 4-vCPU KVM guest the same engine call ran twice
// as slow in one 30-second window as in another a few minutes later, so
// no statistic taken within one run removes the drift between runs. Every
// timed leg (each scenario of a sweep, each engine call, each batch of
// set-ups) is therefore bracketed by two samples of a fixed calibration
// loop, and its time is scaled to a reference host on which one sample
// takes kReferenceCalibrationS. Of the loops tried beside the Smache
// engine over seven minutes (xorshift with table updates, virtual calls
// over 256 classes, std::map churn, std::sort, snprintf/strtod), the
// formatting loop tracked the engine best: across 30-second windows the
// engine's median time spread 44% (IQR over median) and its ratio to this
// loop 4%; the other loops left 16-24%.

/// Doubles printed and re-parsed by one calibration sample.
constexpr int kCalibrationValues = 40000;
/// Seconds one calibration sample takes on the reference host; a timed leg
/// is reported in seconds of that host.
constexpr double kReferenceCalibrationS = 0.025;

/// Host seconds of one calibration sample: print a fixed series of doubles
/// with "%.17g" and parse each back. The work never changes, so its time
/// measures the host alone.
double calibration_s() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double sum = 0.0;
  char buf[32];
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalibrationValues; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(x) * 1e-7);
    sum += std::strtod(buf, nullptr);
  }
  const double seconds = seconds_since(t0);
  if (!(sum > 0.0)) throw std::logic_error("calibration: no values parsed");
  return seconds;
}

/// Calibration samples between consecutive timed legs.
class HostClock {
 public:
  HostClock() : before_(calibration_s()) { samples_.push_back(before_); }

  /// Factor from host seconds to reference-host seconds for the leg that
  /// just ended: the mean of the samples taken before and right after it.
  double leg_factor() {
    const double after = calibration_s();
    samples_.push_back(after);
    const double factor = kReferenceCalibrationS / (0.5 * (before_ + after));
    before_ = after;
    return factor;
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  double before_;
  std::vector<double> samples_;
};

/// Set-ups per timed repetition: one takes about a millisecond, so a run
/// can afford many.
constexpr std::size_t kSetupReps = 20;

/// One set-up: validate and expand, open an empty store, then make the
/// input and elaborate the design of every scenario, without simulating.
double time_setup(const Workload& w, const fs::path& work) {
  const std::string dir = fresh_dir(work, "setup");
  const auto t0 = Clock::now();
  {
    const std::vector<Scenario> scenarios = expand_all(w);
    const ResultStore store(dir);
    for (const Scenario& s : scenarios) {
      const Grid init = make_input(s);
      const RunResult elaborated = Engine(s.engine).elaborate_only(s.problem);
      if (init.size() == 0 || elaborated.resources.r_total == 0)
        throw std::runtime_error("setup: empty input or design for '" +
                                 s.label + "'");
    }
  }
  const double seconds = seconds_since(t0);
  fs::remove_all(dir);
  return seconds;
}

/// Whole-repetition times of the timed legs, in reference-host seconds.
struct TimedSamples {
  std::vector<double> sweep_s;   // spec expansion to emitted JSON
  std::vector<double> engine_s;  // the engine calls alone
  std::vector<double> setup_s;   // one set-up each
};

/// One timed repetition: a cold sweep through the executor (spec expansion
/// to emitted JSON), its warm re-run from the same store, the engine calls
/// alone for the simulator speed, then kSetupReps set-ups.
void timed_rep(const Workload& w, const Checked& c, const fs::path& work,
               HostClock& clock, TimedSamples& samples, Run& run) {
  const std::size_t n = c.scenarios.size();
  const std::string dir = fresh_dir(work, "store");
  std::vector<ScenarioResult> cold;
  {
    // The executor reports progress after every scenario (serially, with
    // threads=1); a calibration sample taken there splits the sweep into
    // one leg per scenario, and its own time is left out of the sweep's.
    double sweep_s = 0.0;
    auto leg_start = Clock::now();
    const auto end_leg = [&] {
      const double leg_s = seconds_since(leg_start);
      sweep_s += leg_s * clock.leg_factor();
      leg_start = Clock::now();
    };
    const std::vector<Scenario> scenarios = expand_all(w);
    ResultStore store(dir);
    auto options = w.options;
    options.store = &store;
    options.progress = [&](const smache::sweep::SweepProgress&) { end_leg(); };
    cold = SweepExecutor(options).run(scenarios);
    const std::string json = smache::sweep::emit_json(cold);
    end_leg();
    samples.sweep_s.push_back(sweep_s);
    if (json.empty()) run.finding("cold: empty JSON report");
  }
  run.reproduce("cold", cold, c.digests, c.digest);

  {
    ResultStore store(dir);
    auto options = w.options;
    options.store = &store;
    const std::vector<ScenarioResult> warm =
        SweepExecutor(options).run(c.scenarios);
    if (store.stats().hits != warm.size())
      run.finding("warm: " + std::to_string(store.stats().hits) + " of " +
                  std::to_string(warm.size()) + " scenarios hit the store");
    if (SweepExecutor::digest(warm) != SweepExecutor::digest(cold))
      run.finding("warm: digest differs from the cold run");
  }
  fs::remove_all(dir);

  double engine_s = 0.0;
  std::vector<ScenarioResult> direct(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& s = c.scenarios[i];
    ScenarioResult& out = direct[i];
    out.scenario = s;
    const Grid init = make_input(s);
    try {
      const auto t0 = Clock::now();
      out.run = run_engine(s, init, w.options.tile_threads);
      const double call_s = seconds_since(t0);
      engine_s += call_s * clock.leg_factor();
      out.output_hash = smache::sweep::hash_grid(out.run.output.value());
      out.run.output.reset();
      out.run.plan.reset();
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    // The oracle is not part of the engine leg; carry the checked verdict.
    out.reference_checked = w.options.verify_reference;
    out.reference_match = w.options.verify_reference;
  }
  samples.engine_s.push_back(engine_s);
  run.reproduce("engine", direct, c.digests, c.digest);

  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i)
    setup_s.push_back(time_setup(w, work));
  const double factor = clock.leg_factor();
  for (const double s : setup_s) samples.setup_s.push_back(s * factor);
}

// ------------------------------------------------------------ traced pass

const char* engine_path(const Scenario& s) {
  if (s.engine.arch == Architecture::Baseline) return "baseline";
  return s.depth > 1 ? "cascade" : "smache";
}

struct DrivenPass {
  double wall_s = 0.0;
  std::vector<ScenarioResult> results;
  std::map<std::string, std::uint64_t> counters;  // summed metric samples
};

/// The executor's per-scenario order driven through public calls:
/// make_input -> engine -> hash_grid -> reference_run (when the workload
/// verifies) -> ResultStore::put, then the JSON/CSV reports and the digest.
/// With a log, every call gets a span and the engine profiles; without
/// one, this is the untraced twin the trace overhead is measured against.
DrivenPass drive(const Workload& w, const std::string& store_dir,
                 SpanLog* log) {
  DrivenPass out;
  const auto t0 = Clock::now();
  Span pass(log, "bench.pass", 0);
  std::vector<Scenario> scenarios;
  {
    Span sp(log, "sweep.spec.expand", pass.id());
    scenarios = expand_all(w);
  }
  std::optional<ResultStore> store;
  {
    Span sp(log, "sweep.store.open", pass.id());
    store.emplace(store_dir);
  }
  out.results.resize(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Span scenario_span(log, "sweep.executor.scenario", pass.id());
    const std::uint64_t parent = scenario_span.id();
    Scenario s = scenarios[i];
    s.engine.profile = log != nullptr;
    ScenarioResult& r = out.results[i];
    r.scenario = s;
    try {
      std::optional<Grid> init;
      {
        Span sp(log, "sweep.workloads.make_input", parent);
        init.emplace(make_input(s));
      }
      {
        const bool tiled = is_tiled(s);
        Span sp(log, tiled ? "core.engine.run_tiled" : "core.engine.run",
                parent);
        r.run = run_engine(s, *init, w.options.tile_threads);
        sp.tag(tiled ? "tiled" : engine_path(s), r.run.cycles);
      }
      {
        Span sp(log, "sweep.hash.hash_grid", parent);
        r.output_hash = smache::sweep::hash_grid(r.run.output.value());
      }
      if (w.options.verify_reference) {
        Span sp(log, "grid.reference.run", parent);
        const Grid golden = smache::reference_run(s.problem, *init);
        sp.tag("reference", s.problem.cells() * s.problem.steps);
        r.reference_checked = true;
        r.reference_match = golden == r.run.output.value();
      }
      r.run.output.reset();
      r.run.plan.reset();
      r.ok = true;
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    for (const smache::obs::MetricSample& m : r.run.metrics)
      out.counters[m.path] += m.value;
    Span sp(log, "sweep.store.put", parent);
    store->put(to_stored(r, ResultStore::scenario_key(
                                scenarios[i], w.options.verify_reference)));
  }
  std::size_t report_bytes = 0;
  {
    Span sp(log, "sweep.emit.json", pass.id());
    report_bytes += smache::sweep::emit_json(out.results).size();
  }
  {
    Span sp(log, "sweep.emit.csv", pass.id());
    report_bytes += smache::sweep::emit_csv(out.results).size();
  }
  {
    Span sp(log, "sweep.executor.digest", pass.id());
    if (SweepExecutor::digest(out.results) == 0 || report_bytes == 0)
      throw std::runtime_error("driven pass: empty digest or report");
  }
  out.wall_s = seconds_since(t0);
  return out;
}

/// The set-up calls a run makes, each under its own span, outside the
/// overhead window: the planner and elaboration for every design the
/// program builds (per tile and pass when tiled).
void probe_setup(const std::vector<Scenario>& scenarios, SpanLog* log) {
  Span root(log, "bench.setup_probe", 0);
  for (const Scenario& s : scenarios) {
    std::vector<ProblemSpec> designs;
    if (is_tiled(s)) {
      const auto layout = plan_layout(s);
      for (std::size_t pass = 0; pass < s.problem.steps / s.depth; ++pass)
        for (const auto& t : layout.tiles) designs.push_back(tile_problem(s, t));
    } else {
      designs.push_back(s.problem);
    }
    const Engine engine(s.engine);
    for (const ProblemSpec& p : designs) {
      if (s.engine.arch == Architecture::Smache) {
        Span sp(log, "model.planner.plan", root.id());
        if (engine.plan_only(p).cells() == 0)
          throw std::runtime_error("probe: empty plan");
      }
      Span sp(log, "core.engine.elaborate", root.id());
      engine.elaborate_only(p);
    }
  }
}

/// The tiling layer's calls for every tiled scenario, each under its own
/// span, outside the overhead window: plan_tiling over the scenario's mesh,
/// then for every pass gather_tile and stitch_interior on every tile, on the
/// grid sizes run_tiled moves. Inside run_tiled the tiles of a pass overlap
/// on several threads, so the first pass also runs each tile's sub-engine
/// alone to give the tile path (a cascade when depth > 1) its own cost per
/// cycle.
void probe_tiling(const std::vector<Scenario>& scenarios, SpanLog* log) {
  Span root(log, "bench.tiling_probe", 0);
  for (const Scenario& s : scenarios) {
    if (!is_tiled(s)) continue;
    const ProblemSpec& p = s.problem;
    std::optional<smache::grid::TilingLayout> layout;
    {
      Span sp(log, "grid.tiling.plan", root.id());
      layout.emplace(plan_layout(s));
    }
    const Engine engine(s.engine);
    Grid state = make_input(s);
    for (std::size_t pass = 0; pass < p.steps / s.depth; ++pass) {
      Grid next(p.height, p.width, p.depth, state.layout(), 0);
      for (const smache::grid::TileGeometry& t : layout->tiles) {
        std::optional<Grid> fed;
        {
          Span sp(log, "grid.tiling.gather", root.id());
          fed.emplace(smache::grid::gather_tile(state, t, p.bc));
        }
        if (pass == 0) {
          const ProblemSpec sub = tile_problem(s, t);
          Span sp(log, "bench.tiling_probe.tile_run", root.id());
          const RunResult r = s.depth > 1
                                  ? engine.run_cascade(sub, *fed, s.depth)
                                  : engine.run(sub, *fed);
          sp.tag(engine_path(s), r.cycles);
        }
        // Any grid of the tile's sub-size stitches at the same cost.
        Span sp(log, "grid.tiling.stitch", root.id());
        smache::grid::stitch_interior(next, t, *fed);
      }
      state = std::move(next);
    }
  }
}

struct WarmProbe {
  std::size_t hits = 0;
  std::size_t attempted = 0;
  bool records_match = true;
};

/// Re-open the store a traced pass filled and look every scenario up.
WarmProbe probe_warm(const Workload& w, const std::vector<Scenario>& scenarios,
                     const std::vector<ScenarioResult>& cold,
                     const std::string& store_dir, SpanLog* log) {
  WarmProbe probe;
  Span root(log, "bench.warm", 0);
  std::optional<ResultStore> store;
  {
    Span sp(log, "sweep.store.warm_open", root.id());
    store.emplace(store_dir);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::uint64_t key =
        ResultStore::scenario_key(scenarios[i], w.options.verify_reference);
    smache::sweep::StoredResult hit;
    bool found = false;
    {
      Span sp(log, "sweep.store.find", root.id());
      found = store->find(key, &hit);
    }
    ++probe.attempted;
    if (found) {
      ++probe.hits;
      if (!(hit == to_stored(cold[i], key))) probe.records_match = false;
    }
  }
  return probe;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"scenarios_per_s", "1/s"},     {"sim_mcycles_per_s", "Mcycles/s"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
    {"scenario_pass_ratio", "ratio"}, {"sim_cycles", "count"},
    {"dram_mbytes", "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"sweep.spec.expand_ms", "ms"},
    {"sweep.workloads.make_input_ms", "ms"},
    {"sweep.store.open_ms", "ms"},
    {"sweep.store.put_ms", "ms"},
    {"sweep.hash.hash_grid_ms", "ms"},
    {"sweep.emit.json_ms", "ms"},
    {"sweep.emit.csv_ms", "ms"},
    {"sweep.executor.digest_ms", "ms"},
    {"sweep.store.warm_open_ms", "ms"},
    {"sweep.store.find_ms", "ms"},
    {"sweep.store.hit_ratio", "ratio"},
    {"sweep.executor.unattributed_ms", "ms"},
    {"core.engine.run_ms", "ms"},
    {"core.engine.ns_per_cycle.smache", "ns"},
    {"core.engine.ns_per_cycle.baseline", "ns"},
    {"core.engine.ns_per_cycle.cascade", "ns"},
    {"core.engine.ns_per_cycle.tiled", "ns"},
    {"core.engine.elaborate_ms", "ms"},
    {"model.planner.plan_ms", "ms"},
    {"grid.reference.run_ms", "ms"},
    {"grid.reference.ns_per_cell_step", "ns"},
    {"grid.tiling.plan_ms", "ms"},
    {"grid.tiling.gather_ms", "ms"},
    {"grid.tiling.stitch_ms", "ms"},
    {"sim.cycles.eval", "count"},
    {"sim.cycles.idle", "count"},
    {"sim.cycles.fastforward", "count"},
    {"sim.wakes.channel", "count"},
    {"sim.wakes.timer", "count"},
    {"rtl.smache.awake", "count"},
    {"rtl.baseline.awake", "count"},
    {"rtl.cascade.awake", "count"},
    {"rtl.kernel.awake", "count"},
    {"rtl.stall.dram_wait", "count"},
    {"rtl.stall.request_backpressure", "count"},
    {"rtl.stall.writeback_backpressure", "count"},
    {"rtl.stall.interstage_backpressure", "count"},
    {"mem.dram.awake", "count"},
    {"mem.dram.words_read", "count"},
    {"mem.dram.words_written", "count"},
    {"mem.dram.row_hits", "count"},
    {"mem.dram.row_misses", "count"},
    {"mem.dram.stall.row_wait", "count"},
    {"mem.dram.stall.backpressure", "count"},
    {"mem.dram.read_over_compulsory", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
};

using Values = std::map<std::string, double>;

/// Host-time layer metrics of one traced pass (self times, ms).
Values layer_times(const SpanLog& log) {
  const std::map<std::string, double> self = log.self_ms_by_name();
  const auto ms = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  // A "<span name>_ms" metric is that span's summed self time.
  Values v;
  for (const Metric& m : kPerLayer) {
    const std::string_view name = m.name;
    if (name.ends_with("_ms"))
      v[m.name] = ms(std::string(name.substr(0, name.size() - 3)));
  }
  v["sweep.executor.unattributed_ms"] = ms("sweep.executor.scenario");
  v["core.engine.run_ms"] = ms("core.engine.run") + ms("core.engine.run_tiled");

  // Whole-call cost per unit of work, by tag.
  std::map<std::string, std::pair<double, double>> per_tag;  // ns, work
  for (const perfbench::SpanRecord& r : log.records())
    if (r.tag != nullptr) {
      per_tag[r.tag].first += r.duration_ns();
      per_tag[r.tag].second += static_cast<double>(r.work);
    }
  const auto ratio = [&per_tag](const char* tag) {
    const auto it = per_tag.find(tag);
    return it == per_tag.end() || it->second.second == 0.0
               ? 0.0
               : it->second.first / it->second.second;
  };
  for (const char* path : {"smache", "baseline", "cascade", "tiled"})
    v[std::string("core.engine.ns_per_cycle.") + path] = ratio(path);
  v["grid.reference.ns_per_cell_step"] = ratio("reference");
  return v;
}

/// Exact simulated counts of one pass: the engine's metric snapshots
/// (sched/*, per-top stalls, DRAM stalls) and RunResult::dram.
Values layer_counts(const DrivenPass& pass, const Checked& c) {
  const auto sum = [&pass](auto&& match) {
    std::uint64_t total = 0;
    for (const auto& [path, value] : pass.counters)
      if (match(std::string_view(path))) total += value;
    return static_cast<double>(total);
  };
  const auto exact = [&sum](std::string_view want) {
    return sum([want](std::string_view p) { return p == want; });
  };
  const auto stall = [&sum](std::string_view kind) {
    return sum([kind](std::string_view p) {
      for (std::string_view top : {"smache/stall/", "baseline/stall/",
                                   "cascade/stall/"})
        if (p.starts_with(top) && p.substr(top.size()) == kind) return true;
      return false;
    });
  };
  Values v;
  v["sim.cycles.eval"] = exact("sched/cycles/eval");
  v["sim.cycles.idle"] = exact("sched/cycles/idle");
  v["sim.cycles.fastforward"] = exact("sched/cycles/fastforward");
  v["sim.wakes.channel"] = exact("sched/wakes/channel");
  v["sim.wakes.timer"] = exact("sched/wakes/timer");
  v["rtl.smache.awake"] = exact("sched/module/smache/awake");
  v["rtl.baseline.awake"] = exact("sched/module/baseline/awake");
  v["rtl.cascade.awake"] = exact("sched/module/cascade/awake");
  v["rtl.kernel.awake"] = sum([](std::string_view p) {
    return p.starts_with("sched/module/kernel/") && p.ends_with("/awake");
  });
  for (const char* kind : {"dram_wait", "request_backpressure",
                           "writeback_backpressure", "interstage_backpressure"})
    v[std::string("rtl.stall.") + kind] = stall(kind);
  v["mem.dram.awake"] = exact("sched/module/dram/awake");
  v["mem.dram.stall.row_wait"] = exact("dram/stall/row_wait");
  v["mem.dram.stall.backpressure"] = exact("dram/stall/backpressure");
  smache::mem::DramStats dram;
  for (const ScenarioResult& r : pass.results) {
    dram.words_read += r.run.dram.words_read;
    dram.words_written += r.run.dram.words_written;
    dram.row_hits += r.run.dram.row_hits;
    dram.row_misses += r.run.dram.row_misses;
  }
  v["mem.dram.words_read"] = static_cast<double>(dram.words_read);
  v["mem.dram.words_written"] = static_cast<double>(dram.words_written);
  v["mem.dram.row_hits"] = static_cast<double>(dram.row_hits);
  v["mem.dram.row_misses"] = static_cast<double>(dram.row_misses);
  v["mem.dram.read_over_compulsory"] =
      static_cast<double>(c.words_read) / static_cast<double>(c.compulsory);
  return v;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-work";
  Clock::time_point start = Clock::now();
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = smache::sweep::parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(
          smache::sweep::parse_count(value, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

constexpr std::size_t kMinReps = 3;

/// Repeat `body` until the run's --seconds budget, counted from the start
/// of the process, is spent; at least kMinReps times.
template <typename Body>
void repeat_for(const Args& args, Body&& body) {
  for (std::size_t rep = 0;
       rep < kMinReps || seconds_since(args.start) < args.seconds; ++rep)
    body(rep);
}

/// Sample count and range of a timed series (stderr only).
void describe_samples(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::fprintf(stderr, "  %-7s n=%zu  min %.6g  median %.6g  max %.6g s\n",
               name, v.size(), v.front(), median(v), v.back());
}

Values end_to_end(const Workload& w, const Checked& c, const Args& args,
                  Run& run) {
  HostClock clock;
  TimedSamples samples;
  repeat_for(args, [&](std::size_t) {
    timed_rep(w, c, args.work_dir, clock, samples, run);
  });
  describe_samples("sweep", samples.sweep_s);
  describe_samples("engine", samples.engine_s);
  describe_samples("setup", samples.setup_s);
  describe_samples("calib", clock.samples());
  Values v;
  v["scenarios_per_s"] =
      static_cast<double>(c.scenarios.size()) / median(samples.sweep_s);
  v["sim_mcycles_per_s"] =
      static_cast<double>(c.sim_cycles) / median(samples.engine_s) / 1e6;
  v["setup_s"] = median(samples.setup_s);
  v["peak_rss_mb"] = peak_rss_mb();
  v["scenario_pass_ratio"] =
      1.0 - static_cast<double>(run.failed) /
                static_cast<double>(std::max<std::size_t>(run.attempted, 1));
  v["sim_cycles"] = static_cast<double>(c.sim_cycles);
  v["dram_mbytes"] = static_cast<double>(c.dram_bytes) / 1e6;
  return v;
}

Values per_layer(const Workload& w, const Checked& c, const Args& args,
                 Run& run) {
  std::map<std::string, std::vector<double>> samples;
  std::optional<Values> first_counts;
  std::string trace_json;
  repeat_for(args, [&](std::size_t rep) {
    const std::string plain_dir = fresh_dir(args.work_dir, "untraced");
    const DrivenPass plain = drive(w, plain_dir, nullptr);
    fs::remove_all(plain_dir);
    run.reproduce("untraced", plain.results, c.digests, c.digest);

    SpanLog log(rep + 1);
    const std::string dir = fresh_dir(args.work_dir, "traced");
    const DrivenPass traced = drive(w, dir, &log);
    run.reproduce("traced", traced.results, c.digests, c.digest);
    const WarmProbe warm =
        probe_warm(w, c.scenarios, traced.results, dir, &log);
    fs::remove_all(dir);
    if (warm.hits != warm.attempted || !warm.records_match)
      run.finding("traced warm leg: " + std::to_string(warm.hits) + " of " +
                  std::to_string(warm.attempted) +
                  " hits, records match: " +
                  (warm.records_match ? "yes" : "no"));
    probe_setup(c.scenarios, &log);
    probe_tiling(c.scenarios, &log);
    if (log.dropped()) run.finding("span log dropped records");

    Values v = layer_times(log);
    const Values counts = layer_counts(traced, c);
    if (!first_counts) first_counts = counts;
    if (counts != *first_counts)
      run.finding("sim/rtl/mem counts differ between traced passes");
    std::uint64_t cycles = 0, bytes = 0;
    for (const ScenarioResult& r : traced.results) {
      cycles += r.run.cycles;
      bytes += r.run.dram.total_bytes();
    }
    if (cycles != c.sim_cycles || bytes != c.dram_bytes)
      run.finding("traced pass changed sim_cycles or dram bytes");
    v.insert(counts.begin(), counts.end());
    v["sweep.store.hit_ratio"] =
        static_cast<double>(warm.hits) / static_cast<double>(warm.attempted);
    v["obs.trace_overhead_ratio"] = traced.wall_s / plain.wall_s;
    for (const auto& [name, value] : v) samples[name].push_back(value);
    trace_json = log.chrome_json("perfbench " + w.name);
  });
  const fs::path trace_path =
      args.work_dir / ("trace-" + w.name + "-seed" + std::to_string(args.seed) +
                       ".json");
  std::ofstream(trace_path) << trace_json;
  std::fprintf(stderr, "  %zu traced reps; spans of the last in %s\n",
               samples.begin()->second.size(), trace_path.c_str());
  Values v;
  for (const auto& [name, values] : samples) v[name] = median(values);
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void report(const Workload& w, const std::vector<Metric>& table,
            const Values& values, const Run& run) {
  std::fprintf(stderr, "perfbench %s\n", w.name.c_str());
  std::string metrics;
  for (const Metric& m : table) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name, v, m.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
               json_number(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& f : run.findings)
    std::fprintf(stderr, "  FINDING: %s\n", f.c_str());
  std::fprintf(stderr, "  attempted %zu, failed %zu, correct %s\n",
               run.attempted, run.failed, run.correct() ? "yes" : "no");
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      run.correct() ? "true" : "false", run.attempted, run.failed,
      metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "smache_perfbench: %s\nusage: smache_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
                 "workloads: stream-f1 baseline-ddr-verify "
                 "temporal-tiled-multifield\n",
                 e.what());
    return 2;
  }
  try {
    const Workload w = make_workload(args.workload, args.seed);
    fs::create_directories(args.work_dir);
    Run run;
    const Checked c = check_outputs(w, run);
    const Values v = args.trace ? per_layer(w, c, args, run)
                                : end_to_end(w, c, args, run);
    report(w, args.trace ? kPerLayer : kEndToEnd, v, run);
    return run.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smache_perfbench: %s\n", e.what());
    return 1;
  }
}
