#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (first_failure.empty()) first_failure = what;
}

// --- Tracer -------------------------------------------------------------------

namespace {

thread_local std::vector<std::uint64_t> open_spans;

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::begin(const char* name) {
  const double start = seconds_since(origin_);
  const std::uint64_t parent = open_spans.empty() ? 0 : open_spans.back();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    spans_.push_back({name, id, parent, start, 0, thread_index()});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::uint64_t id) {
  const double end = seconds_since(origin_);
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and spans_ is append-only, so id - 1 is the record.
  spans_[id - 1].end_s = end;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::pair<std::uint64_t, double> Tracer::totals(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::pair<std::uint64_t, double> out{0, 0};
  for (const SpanRecord& s : spans_) {
    if (s.name.compare(0, prefix.size(), prefix) != 0) continue;
    ++out.first;
    out.second += s.end_s - s.start_s;
  }
  return out;
}

std::string Tracer::self_time_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run on its thread and nest, so their durations
  // never overlap and can simply be summed.
  std::vector<double> child_s(spans_.size() + 1, 0);
  for (const SpanRecord& s : spans_)
    if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans_) {
    Row& r = rows[s.name];
    const double d = s.end_s - s.start_s;
    ++r.count;
    r.total_ms += d * 1e3;
    r.self_ms += (d - child_s[s.id]) * 1e3;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::string out = "span                              count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof line, "%-32s %6llu %11.2f %11.2f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    out += line;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}%s\n",
                 s.name.c_str(), s.thread, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// --- Host ---------------------------------------------------------------------

namespace {

// A dependent multiply chain the compiler cannot fold or vectorize.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ull + i;
  return x;
}

// Seconds for `threads` threads to each run `iterations` spin steps.
double spin_wall(unsigned threads, std::uint64_t iterations) {
  std::atomic<std::uint64_t> sink{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> team;
  for (unsigned t = 0; t < threads; ++t)
    team.emplace_back([&] { sink.fetch_add(spin(iterations)); });
  for (std::thread& th : team) th.join();
  return seconds_since(t0);
}

}  // namespace

double probe_capacity(unsigned threads) {
  constexpr std::uint64_t kIterations = 20'000'000;  // ~20 ms per thread
  std::vector<double> ratios;
  for (int round = 0; round < 5; ++round) {
    const double one = spin_wall(1, kIterations);
    const double all = spin_wall(threads, kIterations);
    ratios.push_back(static_cast<double>(threads) * one / all);
  }
  return median(ratios);
}

void warm_cpus(unsigned threads, double seconds) {
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < seconds) spin_wall(threads, 5'000'000);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
