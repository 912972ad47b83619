// The three measured phases.  Every run sets all three up and runs all three,
// so each workload reports every end-to-end metric; the workload decides
// which phase gets the larger share of the run (see README.md).
//
// A phase's constructor is its set-up: it generates the seeded inputs,
// compiles and builds what the timed part needs, and computes the
// independent reference answers.  run() measures for a time budget and
// fills the metric sheets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  unsigned threads = 1;          // nproc: the width of every parallel call
  bool trace = false;            // traced mode: per-layer metrics
  bool wrong_reference = false;  // self-test: corrupt one reference answer
};

/// Results a phase hands back.  `e2e` holds end-to-end metrics, `layer`
/// the per-layer metrics of the traced mode, `notes` human-readable lines.
struct PhaseResult {
  Sheet e2e;
  Sheet layer;
  Tally tally;
  std::vector<std::string> notes;
};

class Phase {
 public:
  virtual ~Phase() = default;
  virtual const char* name() const = 0;
  virtual void run(double budget_s, PhaseResult& out) = 0;
};

std::unique_ptr<Phase> make_build_phase(const Context& ctx);
std::unique_ptr<Phase> make_scan_phase(const Context& ctx);
std::unique_ptr<Phase> make_serve_phase(const Context& ctx);

}  // namespace perfbench
