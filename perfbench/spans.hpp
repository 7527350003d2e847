// In-memory span log for the benchmark's traced pass. Each span is one call
// into a layer (name, start, end, parent span), opened and closed on the
// benchmark's own thread; all spans of one traced workload pass share a run
// id. Spans are only buffered while the
// pass runs and are reduced to per-layer self times or written out as
// Chrome trace-event JSON afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t run = 0;
  double t0_ns = 0.0;  // relative to the log's origin
  double t1_ns = 0.0;
  /// Optional tag: the engine path ("smache", "baseline", "cascade",
  /// "tiled") or the reference oracle ("reference"), with the work the
  /// call did (simulated cycles, or cells x steps for the oracle).
  const char* tag = nullptr;
  std::uint64_t work = 0;

  double duration_ns() const noexcept { return t1_ns - t0_ns; }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run) : run_(run), origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t run() const noexcept { return run_; }
  std::uint64_t next_id() noexcept { return ++last_id_; }
  double now_ns() const noexcept {
    return std::chrono::duration<double, std::nano>(Clock::now() - origin_)
        .count();
  }
  void add(const SpanRecord& record) { records_.push_back(record); }
  /// Set when a span could not be recorded (allocation failure).
  void note_dropped() noexcept { dropped_ = true; }
  bool dropped() const noexcept { return dropped_; }

  /// Records in completion order; call only after every span has closed.
  const std::vector<SpanRecord>& records() const noexcept { return records_; }

  /// Per span name: the summed self time in milliseconds, where a span's
  /// self time is its duration minus its children's.
  std::map<std::string, double> self_ms_by_name() const;

  /// Chrome trace-event JSON (one complete "X" event per span, 1 us units).
  std::string chrome_json(const std::string& process_name) const;

 private:
  std::uint64_t run_;
  Clock::time_point origin_;
  std::uint64_t last_id_ = 0;
  bool dropped_ = false;
  std::vector<SpanRecord> records_;
};

/// Scoped span: opens on construction, records on destruction. A null log
/// makes it a no-op, so the untraced pass runs the same code.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }
  void tag(const char* what, std::uint64_t work) noexcept {
    record_.tag = what;
    record_.work = work;
  }

 private:
  SpanLog* log_;
  SpanRecord record_;
};

}  // namespace perfbench
