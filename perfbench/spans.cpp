#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::map<std::string, double> SpanLog::self_ms_by_name() const {
  std::unordered_map<std::uint64_t, double> children_ns;
  for (const SpanRecord& r : records_)
    if (r.parent != 0) children_ns[r.parent] += r.duration_ns();

  std::map<std::string, double> self_ms;
  for (const SpanRecord& r : records_) {
    const auto it = children_ns.find(r.id);
    const double covered = it == children_ns.end() ? 0.0 : it->second;
    self_ms[r.name] += std::max(0.0, r.duration_ns() - covered) / 1e6;
  }
  return self_ms;
}

std::string SpanLog::chrome_json(const std::string& process_name) const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const SpanRecord& r : records_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":\"%s\",\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"run\":%llu}}",
                  first ? "" : ",", r.name, process_name.c_str(),
                  r.t0_ns / 1e3, r.duration_ns() / 1e3,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.run));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

Span::Span(SpanLog* log, const char* name, std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  record_.name = name;
  record_.id = log_->next_id();
  record_.parent = parent;
  record_.run = log_->run();
  record_.t0_ns = log_->now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  record_.t1_ns = log_->now_ns();
  try {
    log_->add(record_);
  } catch (...) {
    log_->note_dropped();
  }
}

}  // namespace perfbench
