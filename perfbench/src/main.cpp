// sfa_perfbench — the end-to-end benchmark of libsfa: SFA construction,
// long scans and a matching service, each checked against an independent
// reference.  See README.md for the workloads and metrics.
//
//   sfa_perfbench --workload build|scan|serve --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE] [--inject-wrong-reference]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// The exit code is 0 only when every checked answer was right.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "phases.hpp"
#include "sfa/support/cpu.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 3;  // set-up repeats; setup_s is their median

struct Args {
  std::string workload;
  Context ctx;
  double seconds = 10;
  std::string trace_out = "perfbench_trace.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sfa_perfbench: %s\nusage: sfa_perfbench --workload build|scan|serve "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--inject-wrong-reference]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.ctx.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      a.ctx.trace = value() == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--inject-wrong-reference") {
      a.ctx.wrong_reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload != "build" && a.workload != "scan" && a.workload != "serve")
    usage("--workload must be build, scan or serve");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Sheet& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
}

std::string describe(const std::string& name, const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-32s %.6g %s", name.c_str(), m.value, m.unit.c_str());
  return buf;
}

int run(const Args& args) {
  const Context& ctx = args.ctx;
  if (ctx.trace) Tracer::instance().enable();
  std::printf("workload %s, seed %llu, %.0f s, %u threads, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), args.seconds, ctx.threads,
              ctx.trace ? "traced" : "untraced");

  // Set-up, several times over; the last set of phases is the one measured.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Phase>> phases;
  for (int i = 0; i < kSetups; ++i) {
    phases.clear();
    Span span("setup");
    const Clock::time_point t0 = Clock::now();
    phases.push_back(make_build_phase(ctx));
    phases.push_back(make_scan_phase(ctx));
    phases.push_back(make_serve_phase(ctx));
    setup_s.push_back(seconds_since(t0));
  }

  warm_cpus(ctx.threads, 0.3);
  const double capacity_before = probe_capacity(ctx.threads);
  PhaseResult all;
  Tally total;
  for (const std::unique_ptr<Phase>& phase : phases) {
    // The named workload gets half the run, the other two a quarter each.
    const double share = args.workload == phase->name() ? 0.5 : 0.25;
    warm_cpus(ctx.threads, 0.1);
    PhaseResult r;
    {
      Span span(phase->name());
      phase->run(args.seconds * share, r);
    }
    std::printf("%s: attempted %llu, failed %llu%s%s\n", phase->name(),
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed),
                r.tally.failed ? " — first: " : "", r.tally.first_failure.c_str());
    for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
    all.e2e.insert(r.e2e.begin(), r.e2e.end());
    all.layer.insert(r.layer.begin(), r.layer.end());
    total.attempted += r.tally.attempted;
    total.failed += r.tally.failed;
  }
  const double capacity_after = probe_capacity(ctx.threads);
  std::printf("capacity probe: %.2f effective CPUs before, %.2f after (of %u)\n",
              capacity_before, capacity_after, ctx.threads);

  all.e2e["setup_s"] = {median(setup_s), "s"};
  all.e2e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  for (const auto& [name, m] : all.e2e) std::printf("e2e %s\n", describe(name, m).c_str());

  if (ctx.trace) {
    const auto [compiles, compile_s] = Tracer::instance().totals("automata.");
    all.layer["automata.compile_ms"] = {compile_s * 1e3 / static_cast<double>(compiles), "ms"};
    for (const auto& [name, m] : all.layer) std::printf("layer %s\n", describe(name, m).c_str());
    std::printf("self time per span:\n%s", Tracer::instance().self_time_table().c_str());
    if (!Tracer::instance().write(args.trace_out)) {
      std::fprintf(stderr, "sfa_perfbench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", Tracer::instance().size(), args.trace_out.c_str());
  }
  const bool correct = total.failed == 0;
  print_result(correct, total.attempted, total.failed, ctx.trace ? all.layer : all.e2e);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::parse(argc, argv);
  args.ctx.threads = sfa::hardware_threads();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfa_perfbench: %s\n", e.what());
    return 2;
  }
}
