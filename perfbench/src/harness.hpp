// Shared plumbing of the benchmark program: options, the result report,
// percentiles, memory probes and the bench-owned span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke check (smoke.py); never used for records.
  bool smoke = false;
};

/// What one run prints: human-readable lines on the way, then the final
/// JSON object as the last line of standard output.
class Report {
 public:
  /// Records a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// Adds one reported metric (end-to-end or per-layer, by run mode).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints one human-readable line immediately.
  static void note(const std::string& line);

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  /// The final single-line JSON object.
  [[nodiscard]] std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> failures_;
  std::vector<Entry> metrics_;
};

/// Nearest-rank percentile (p in [0, 100]); sorts `values` in place.
[[nodiscard]] double percentile(std::vector<double>& values, double p);
[[nodiscard]] double median(std::vector<double> values);
/// Percentile of (value, weight) pairs: the smallest value at or below
/// which `p`% of the total weight lies. Sorts `values` in place.
[[nodiscard]] double weighted_percentile(
    std::vector<std::pair<double, double>>& values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set of the process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Keeps `value` observable so the optimizer cannot delete a timed loop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Bench-owned span recorder. The load-generating thread wraps each call
/// into a layer in a Span; spans nest on a stack, so every span knows its
/// parent, and spans of one request share the request id. Self time (a
/// span's duration minus the part its children cover) accumulates per
/// layer for every span; the span records themselves are kept in memory up
/// to a cap and written at exit as a Chrome trace through obs's exporter.
/// Single-threaded by design: only the load thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void begin(const char* name, std::uint64_t request_id);
  void end();

  /// Self seconds per layer, the layer being the span name up to its
  /// first '.'.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }

  /// Writes the retained spans as a Chrome trace (pid named `process`).
  void write_chrome_trace(const std::string& path,
                          const std::string& process) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t id;
    Clock::time_point start;
    double child_s;
    std::int64_t record;  ///< Index in records_, or -1 past the cap.
  };
  struct Record {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;  ///< Index of the parent record, -1 for a root.
    double start_s;       ///< Relative to the tracer's creation.
    double dur_s;
  };

  /// Span records kept for the Chrome trace; self times count every span.
  static constexpr std::size_t kRecordCap = 200000;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::map<const char*, double> self_s_;
  std::uint64_t spans_ = 0;
};

/// RAII span; inert (no clock reads) when the tracer is null or disabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t request_id = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin(name, request_id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
