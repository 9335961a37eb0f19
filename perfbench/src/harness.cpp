#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "runner/jsonl.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::cout << "CHECK FAILED: " << what << '\n';
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { std::cout << line << '\n'; }

std::string Report::json() const {
  kar::runner::JsonObject metrics;
  for (const Entry& e : metrics_) {
    kar::runner::JsonObject m;
    // Non-finite values are not JSON; they can only come from a bug, and
    // the run is then marked incorrect by the caller's checks.
    m.field("value", std::isfinite(e.value) ? e.value : 0.0)
        .field("unit", e.unit);
    metrics.raw(e.name, m.str());
  }
  kar::runner::JsonObject out;
  out.field("correct", correct())
      .field("attempted", attempted)
      .field("failed", failed)
      .raw("metrics", metrics.str());
  return out.str();
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double weighted_percentile(std::vector<std::pair<double, double>>& values,
                           double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double total = 0.0;
  for (const auto& [value, weight] : values) total += weight;
  const double target = p / 100.0 * total;
  double seen = 0.0;
  for (const auto& [value, weight] : values) {
    seen += weight;
    if (seen >= target) return value;
  }
  return values.back().first;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

/// Reads one "Key:   N kB" line of /proc/self/status, in MiB.
double status_mb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM"); }

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

void Tracer::begin(const char* name, std::uint64_t request_id) {
  std::int64_t record = -1;
  const Clock::time_point now = Clock::now();
  if (records_.size() < kRecordCap) {
    record = static_cast<std::int64_t>(records_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(
        {name, request_id, parent,
         std::chrono::duration<double>(now - origin_).count(), 0.0});
  }
  stack_.push_back({name, request_id, now, 0.0, record});
}

void Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = seconds_since(open.start);
  self_s_[open.name] += dur - open.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].dur_s = dur;
  }
  ++spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, seconds] : self_s_) {
    const std::string_view full(name);
    out[std::string(full.substr(0, full.find('.')))] += seconds;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process) const {
  kar::obs::ChromeTraceProcess proc;
  proc.name = process;
  proc.records.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    kar::obs::TraceRecord rec;
    rec.cat = kar::obs::TraceCategory::kPhase;
    rec.name = r.name;
    rec.ts_s = r.start_s;
    // A zero duration would render as an instant; keep every span a span.
    rec.dur_s = std::max(r.dur_s, 1e-9);
    rec.id = r.id;
    rec.args = {{"span", std::to_string(i)},
                {"parent", std::to_string(r.parent)}};
    proc.records.push_back(std::move(rec));
  }
  kar::obs::write_chrome_trace_file(path, {proc});
}

}  // namespace perfbench
