#include "sweep/executor.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.hpp"
#include "common/fnv.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "sweep/faults.hpp"
#include "sweep/store.hpp"
#include "sweep/workloads.hpp"

namespace smache::sweep {

namespace {

void run_one(const Scenario& scenario, const ExecutorOptions& options,
             ScenarioResult& out) {
  out.scenario = scenario;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const Engine engine(scenario.engine);
    if (scenario.mode == Mode::ElaborateOnly) {
      out.run = engine.elaborate_only(scenario.problem);
    } else {
      const grid::Grid<word_t> init =
          make_input(scenario.input, scenario.problem.height,
                     scenario.problem.width, scenario.problem.depth,
                     scenario.seed);
      // run_tiled runs a 1x1x1 mesh as the per-instance engine at depth 1
      // and as the cascade above it, and folds the depth into each tile's
      // sub-cascade otherwise. The reference run below is depth- and
      // tiling-independent (same problem.steps), so verification holds
      // across fused passes and tile meshes.
      TilingSpec tiling;
      tiling.tiles_r = scenario.tiles.height;
      tiling.tiles_c = scenario.tiles.width;
      tiling.tiles_s = scenario.tiles.depth;
      tiling.threads = options.tile_threads;
      tiling.depth = scenario.depth;
      out.run = engine.run_tiled(scenario.problem, init, tiling);
      out.output_hash = hash_grid(*out.run.output);
      if (options.verify_reference) {
        const grid::Grid<word_t> golden =
            reference_run(scenario.problem, init);
        out.reference_checked = true;
        out.reference_match = golden == *out.run.output;
      }
    }
    if (!options.keep_outputs) {
      out.run.output.reset();
      out.run.plan.reset();
    }
    out.ok = true;
  } catch (const engine_timeout& e) {
    // Wall-clock watchdog trip: keep the partial counters (timed_out=true,
    // cycles/DRAM at abort) for triage — the caller must treat them as
    // nondeterministic and never persist this result.
    out.ok = false;
    out.error = e.what();
    out.run = e.partial;
    if (!options.keep_outputs) {
      out.run.output.reset();
      out.run.plan.reset();
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
}

/// The one ScenarioResult <-> StoredResult field mapping: fn(result field,
/// record field) for every result field a record stores. The record's key
/// and label identify the scenario rather than its outcome, so to_record
/// sets them alone.
template <typename Result, typename Record, typename Fn>
void for_each_mapped_field(Result& r, Record& s, Fn&& fn) {
  fn(r.ok, s.ok);
  fn(r.error, s.error);
  fn(r.run.cycles, s.cycles);
  fn(r.run.warmup_cycles, s.warmup_cycles);
  fn(r.run.dram, s.dram);
  fn(r.output_hash, s.output_hash);
  fn(r.reference_checked, s.reference_checked);
  fn(r.reference_match, s.reference_match);
  fn(r.run.resources.r_total, s.r_total);
  fn(r.run.resources.b_total, s.b_total);
  fn(r.run.resources.r_static, s.r_static);
  fn(r.run.resources.b_static, s.b_static);
  fn(r.run.resources.r_stream, s.r_stream);
  fn(r.run.resources.b_stream, s.b_stream);
  fn(r.run.resources.m20k_blocks, s.m20k_blocks);
  fn(r.run.timing.fmax_mhz, s.fmax_mhz);
  fn(r.run.ops, s.ops);
  fn(r.run.exec_time_us, s.exec_time_us);
  fn(r.run.mops, s.mops);
}

/// Persist one record with bounded exponential backoff. Exhaustion is
/// logged and swallowed: the in-memory result is intact, so failing to
/// persist must not fail the sweep.
void put_with_retry(ResultStore& store, const StoredResult& record,
                    std::size_t attempts, std::uint32_t backoff_ms) {
  if (attempts == 0) attempts = 1;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      store.put(record);
      return;
    } catch (const store_io_error& e) {
      if (attempt + 1 >= attempts) {
        Log::warn(std::string("result store: giving up on '") + record.label +
                  "' after " + std::to_string(attempts) +
                  " attempts: " + e.what() +
                  " (result kept in memory; it will re-execute on resume)");
        return;
      }
      store.note_retry();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::uint64_t>(backoff_ms)
                                    << attempt));
    }
  }
}

}  // namespace

StoredResult to_record(const ScenarioResult& r, std::uint64_t key) {
  StoredResult s;
  s.key = key;
  s.label = r.scenario.label;
  for_each_mapped_field(r, s, [](const auto& from, auto& to) { to = from; });
  return s;
}

void from_record(const Scenario& scenario, const StoredResult& s,
                 ScenarioResult& out) {
  out.scenario = scenario;
  out.run.arch = scenario.engine.arch;
  for_each_mapped_field(out, s, [](auto& to, const auto& from) { to = from; });
  out.from_store = true;
  out.wall_ms = 0.0;
}

std::uint64_t hash_grid(const grid::Grid<word_t>& g) noexcept {
  Fnv1a h;
  h.word(g.height()).word(g.width());
  if (g.depth() > 1) h.word(g.depth());
  if (g.fields() > 1) h.word(g.fields());
  for (std::size_t i = 0; i < g.size(); ++i) h.word(g[i]);
  return h.value();
}

std::vector<ScenarioResult> SweepExecutor::run(const SweepSpec& spec) const {
  spec.validate();
  return run(spec.expand());
}

std::vector<ScenarioResult> SweepExecutor::run(
    std::vector<Scenario> scenarios) const {
  SMACHE_REQUIRE_MSG(
      options_.store == nullptr || !options_.keep_outputs,
      "ExecutorOptions::store and keep_outputs are mutually exclusive: a "
      "store hit cannot reconstruct an output grid");
  SMACHE_REQUIRE_MSG(
      options_.store == nullptr || options_.fault_plan == nullptr ||
          options_.fault_plan->empty(),
      "ExecutorOptions::store and fault_plan are mutually exclusive: the "
      "scenario key does not encode injected DRAM faults, so a faulted "
      "result must never be journaled under (or served from) the unfaulted "
      "scenario's address");
  std::vector<ScenarioResult> results(scenarios.size());

  // Store-hit prefill (serial: lookups are in-memory map reads; a serial
  // pass keeps the hit/miss partition and all recovery logging ordered).
  std::vector<std::size_t> pending;
  if (options_.store != nullptr) {
    pending.reserve(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::uint64_t key = ResultStore::scenario_key(
          scenarios[i], options_.verify_reference);
      StoredResult hit;
      if (options_.store->find(key, &hit))
        from_record(scenarios[i], hit, results[i]);
      else
        pending.push_back(i);
    }
  } else {
    pending.resize(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) pending[i] = i;
  }

  // Progress telemetry: the callback fires serialised under prog_mu; the
  // wall-derived fields (elapsed/eta) never feed back into results.
  SweepProgress prog;
  prog.total = scenarios.size();
  prog.store_hits = scenarios.size() - pending.size();
  prog.done = prog.store_hits;
  std::mutex prog_mu;
  const auto exec_t0 = std::chrono::steady_clock::now();
  if (options_.progress) options_.progress(prog);
  const auto note_progress = [&](const ScenarioResult& out) {
    if (!options_.progress) return;
    const std::lock_guard<std::mutex> lock(prog_mu);
    if (out.skipped) {
      ++prog.skipped;
    } else {
      ++prog.executed;
      if (!out.ok) ++prog.failed;
    }
    ++prog.done;
    prog.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - exec_t0)
                          .count();
    prog.eta_ms = prog.executed > 0
                      ? prog.elapsed_ms / static_cast<double>(prog.executed) *
                            static_cast<double>(prog.total - prog.done)
                      : 0.0;
    options_.progress(prog);
  };

  parallel_for_index(pending.size(), options_.threads, [&](std::size_t j) {
    const std::size_t i = pending[j];
    ScenarioResult& out = results[i];
    if (options_.stop != nullptr &&
        options_.stop->load(std::memory_order_relaxed)) {
      out.scenario = scenarios[i];
      out.skipped = true;
      out.ok = false;
      out.error = "skipped: stop requested before execution";
      note_progress(out);
      return;
    }
    Scenario scenario = scenarios[i];
    if (options_.fault_plan != nullptr)
      options_.fault_plan->apply(scenario.label, &scenario.engine.dram);
    if (options_.wall_timeout_ms != 0)
      scenario.engine.wall_timeout_ms = options_.wall_timeout_ms;
    if (options_.metrics) scenario.engine.profile = true;
    // Trace export is per-simulator; a tiled scenario fans out over many,
    // so it gets no trace rather than a misleading partial one.
    if (options_.trace && !scenario.tiles.split())
      scenario.engine.trace = true;
    run_one(scenario, options_, out);
    note_progress(out);
    // Journal the finished result — deterministic failures included (they
    // are results too, and resume must reproduce them byte-for-byte).
    // Wall-timeout abandons are the one exclusion: their counters depend
    // on machine load, so caching one would poison every later report.
    if (options_.store != nullptr && !out.run.timed_out) {
      put_with_retry(*options_.store,
                     to_record(out, ResultStore::scenario_key(
                                        scenarios[i],
                                        options_.verify_reference)),
                     options_.store_retry_attempts,
                     options_.store_retry_backoff_ms);
    }
  });
  return results;
}

std::uint64_t SweepExecutor::digest(
    const std::vector<ScenarioResult>& results) {
  Fnv1a h;
  h.scalar(results.size());
  for (const auto& r : results) {
    h.str(r.scenario.label)
        .scalar(r.scenario.seed)
        .scalar(r.scenario.depth)
        .scalar(r.scenario.tiles.height)
        .scalar(r.scenario.tiles.width);
    for (const ExtensionAxis& axis : kExtensionAxes)
      if (const std::size_t v = axis.value(r.scenario); v > 1) h.scalar(v);
    // Not a kExtensionAxes row: the digest has folded the slice-tile count
    // here since that axis existed, while store keys carry it only inside
    // the label and reports only inside the tiles cell.
    if (r.scenario.tiles.depth > 1) h.scalar(r.scenario.tiles.depth);
    h.scalar(r.ok)
        .str(r.error)
        .scalar(r.run.cycles)
        .scalar(r.run.warmup_cycles)
        .scalar(r.run.dram.read_requests)
        .scalar(r.run.dram.words_read)
        .scalar(r.run.dram.words_written)
        .scalar(r.run.dram.row_hits)
        .scalar(r.run.dram.row_misses)
        .scalar(r.run.dram.injected_stall_cycles)
        .scalar(r.run.dram.injected_delay_cycles)
        .scalar(r.run.dram.read_busy_cycles)
        .scalar(r.run.timed_out)
        .scalar(r.output_hash)
        .scalar(r.reference_checked)
        .scalar(r.reference_match)
        .scalar(r.run.resources.r_total)
        .scalar(r.run.resources.b_total)
        .scalar(r.run.resources.r_static)
        .scalar(r.run.resources.b_static)
        .scalar(r.run.resources.r_stream)
        .scalar(r.run.resources.b_stream)
        .scalar(r.run.resources.m20k_blocks)
        .scalar(r.run.timing.fmax_mhz)
        .scalar(r.run.ops)
        .scalar(r.run.exec_time_us)
        .scalar(r.run.mops);
  }
  return h.value();
}

}  // namespace smache::sweep
