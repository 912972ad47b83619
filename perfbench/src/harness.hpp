// Measurement plumbing shared by the three benchmark phases: clocks,
// order statistics, the metric sheets, the correctness tally, the span
// recorder of the traced mode, the host capacity probe and peak RSS.
// Nothing here calls the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps a computed value alive so the loop producing it is not elided.
inline void keep(std::uint64_t value) { asm volatile("" : : "r"(value) : "memory"); }

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);

/// A named value with its unit, printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Sheet = std::map<std::string, Metric>;

/// Attempted and failed operations of one phase.  A failed operation is a
/// library answer that disagreed with the independent reference, or a
/// request the service refused.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Records one checked operation; `what` describes it on failure.
  void check(bool ok, const std::string& what);
};

// --- Traced mode ------------------------------------------------------------
//
// A span covers one call from benchmark code into a library layer.  Spans
// are kept in memory and written out when the run ends; a layer's self time
// is its duration minus the part covered by its child spans.

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  double start_s = 0;        // since the recorder started
  double end_s = 0;
  unsigned thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  std::uint64_t begin(const char* name);
  void end(std::uint64_t id);

  /// Number and total seconds of the spans whose name starts with `prefix`.
  std::pair<std::uint64_t, double> totals(const std::string& prefix) const;
  /// Per-name count, total and self milliseconds, sorted by self time.
  std::string self_time_table() const;
  /// Writes every span as a Chrome-trace JSON array; false on I/O error.
  bool write(const std::string& path) const;
  std::size_t size() const;

 private:
  Tracer();
  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; does nothing (one branch) when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::instance().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_;
};

// --- Host ---------------------------------------------------------------------

/// Effective CPUs: throughput of `threads` spinning threads over that of
/// one, so 4.0 means four vCPUs were really available.
double probe_capacity(unsigned threads);
/// Spins every vCPU for `seconds` so the first timed parallel burst does
/// not pay the wake-up of idle vCPUs.
void warm_cpus(unsigned threads, double seconds);
/// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
