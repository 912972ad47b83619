// Build phase: SFA construction, reported as the paper reports it — states
// per second for the sequential transposed builder at one thread and for
// the parallel builder at nproc threads (§IV, Table I, Fig. 5) — plus one
// r400 build that runs the three-phase compression (§III-C).
//
// Inputs: a draw from benchmark_patterns, kept when the SFA is small
// (1k-20k states, seeded synthetic motifs) or large (90k-160k states,
// embedded PROSITE motifs), plus the paper's r-class DFA r400.  Nothing
// scans here.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "phases.hpp"
#include "sfa/concurrent/lockfree_hash_set.hpp"
#include "sfa/core/build.hpp"
#include "sfa/core/equivalence.hpp"
#include "sfa/core/scan/executor.hpp"
#include "sfa/hash/city64.hpp"
#include "sfa/prosite/patterns.hpp"
#include "sfa/prosite/prosite_parser.hpp"
#include "sfa/simd/transpose.hpp"
#include "sfa/support/rng.hpp"

namespace perfbench {
namespace {

using sfa::BuildMethod;
using sfa::BuildOptions;
using sfa::BuildStats;
using sfa::Dfa;
using sfa::Sfa;

constexpr std::size_t kCandidates = 160;  // benchmark_patterns draw
constexpr std::size_t kSmall = 8;
constexpr std::size_t kLarge = 1;
constexpr std::uint64_t kSmallMin = 1'000, kSmallMax = 20'000;
constexpr std::uint64_t kLargeMin = 90'000, kLargeMax = 160'000;
// Candidates are skipped before compiling when they hold more wildcard
// positions than this, and after compiling when the DFA is larger than
// kMaxDfa: both mark patterns whose compile or SFA explodes, which would
// cost seconds of set-up per candidate.
constexpr unsigned kMaxWildcards = 12;
constexpr std::uint32_t kMaxDfa = 1'000;
constexpr unsigned kRLength = 400;
constexpr const char* kRName = "r400";
constexpr std::size_t kLayerSamples = 512;  // mappings the layer probes use

enum class SizeClass { kSmall, kLarge, kR };

struct Item {
  std::string id;
  SizeClass cls;
  Dfa dfa;
  std::uint64_t states = 0;  // reference count from the set-up build
  std::uint64_t mapping_bytes = 0;
};

// Wildcard positions of a PROSITE pattern: 'x' and exclusion elements,
// weighted by their largest repeat count.  Pure text inspection.
unsigned wildcard_positions(const std::string& pattern) {
  unsigned total = 0;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    bool wild = false;
    if (pattern[i] == 'x') {
      wild = true;
    } else if (pattern[i] == '{' || pattern[i] == '[') {
      wild = pattern[i] == '{';
      i = pattern.find(pattern[i] == '{' ? '}' : ']', i);
      if (i == std::string::npos) break;
    }
    if (!wild) continue;
    unsigned repeat = 1;
    if (i + 1 < pattern.size() && pattern[i + 1] == '(') {
      const std::size_t close = pattern.find(')', i);
      if (close == std::string::npos) break;
      const std::string count = pattern.substr(i + 2, close - i - 2);
      const std::size_t comma = count.find(',');
      repeat = static_cast<unsigned>(std::stoul(
          comma == std::string::npos ? count : count.substr(comma + 1)));
    }
    total += repeat;
  }
  return total;
}

bool verify(const Sfa& sfa, const Dfa& dfa) {
  sfa::VerifyOptions v;
  v.random_inputs = 64;
  v.structural_samples = 64;
  return sfa::verify_sfa(sfa, dfa, v).ok;
}

struct InternNode {
  std::atomic<InternNode*> next{nullptr};
  std::uint64_t fp = 0;
  const std::uint16_t* cells = nullptr;
  unsigned n = 0;
};

struct InternTraits {
  static std::atomic<InternNode*>& next(InternNode& x) { return x.next; }
  static std::uint64_t fingerprint(const InternNode& x) { return x.fp; }
  static bool same_state(const InternNode& a, const InternNode& b) {
    return a.n == b.n &&
           std::memcmp(a.cells, b.cells, a.n * sizeof(std::uint16_t)) == 0;
  }
};

class BuildPhase final : public Phase {
 public:
  explicit BuildPhase(const Context& ctx) : ctx_(ctx) {
    Span span("setup.build");
    select_patterns();
    Item r{kRName, SizeClass::kR,
           sfa::make_r_benchmark_dfa(kRLength, ctx.seed), 0, 0};
    size_item(r, ~0ull);
    r400_ = items_.size();
    items_.push_back(std::move(r));
    if (ctx.wrong_reference) items_.front().states += 1;
  }

  const char* name() const override { return "build"; }

  void run(double budget_s, PhaseResult& out) override {
    std::vector<double> seq_rate, par_rate, compressed_s;
    std::vector<double> class_s[2][2];  // [small|large][t1|tn]
    BuildStats sum_t1, sum_tn, sum_compressed;
    std::size_t passes = 0;
    Sfa probe_sfa;  // the large item's last build, for the layer probes
    const Clock::time_point t0 = Clock::now();
    while (passes < 2 || seconds_since(t0) < budget_s) {
      Span pass_span("build.pass");
      std::uint64_t states = 0;
      double seq_s = 0, par_s = 0;
      double cls_s[2][2] = {{0, 0}, {0, 0}};
      for (const Item& item : items_) {
        BuildStats s1, sn;
        const double t1 = timed_build(item, BuildMethod::kTransposed, 1, 0, s1, nullptr);
        const double tn = timed_build(item, BuildMethod::kParallel, ctx_.threads, 0, sn,
                                      item.cls == SizeClass::kLarge ? &probe_sfa : nullptr);
        out.tally.check(s1.sfa_states == item.states && sn.sfa_states == item.states,
                        "build " + item.id + ": states t1=" + std::to_string(s1.sfa_states) +
                            " tn=" + std::to_string(sn.sfa_states) +
                            " reference=" + std::to_string(item.states));
        states += item.states;
        seq_s += t1;
        par_s += tn;
        if (item.cls != SizeClass::kR) {
          const int c = item.cls == SizeClass::kSmall ? 0 : 1;
          cls_s[c][0] += t1;
          cls_s[c][1] += tn;
        }
        accumulate(sum_t1, s1);
        accumulate(sum_tn, sn);
      }
      // r400 once more under a memory threshold below its mapping bytes,
      // so the three-phase compression runs.  At one thread: the build is
      // steady there, and the last quarter of the states compressed keeps
      // it near a second.
      const Item& r = items_[r400_];
      BuildStats sc;
      compressed_s.push_back(timed_build(r, BuildMethod::kTransposed, 1,
                                         r.mapping_bytes / 4 * 3, sc, nullptr));
      out.tally.check(sc.sfa_states == r.states && sc.compression_triggered,
                      "compressed build " + r.id + ": states " +
                          std::to_string(sc.sfa_states) + ", compression " +
                          (sc.compression_triggered ? "ran" : "did not run"));
      accumulate(sum_compressed, sc);
      seq_rate.push_back(static_cast<double>(states) / seq_s);
      par_rate.push_back(static_cast<double>(states) / par_s);
      for (int c = 0; c < 2; ++c)
        for (int t = 0; t < 2; ++t) class_s[c][t].push_back(cls_s[c][t]);
      ++passes;
    }
    out.e2e["build_seq_states_per_s"] = {median(seq_rate), "states/s"};
    out.e2e["build_par_states_per_s"] = {median(par_rate), "states/s"};
    out.e2e["build_compressed_s"] = {median(compressed_s), "s"};
    out.notes.push_back("build: " + std::to_string(passes) + " passes over " +
                        std::to_string(items_.size()) + " DFAs: " + item_list());
    std::string rates;
    for (std::size_t i = 0; i < passes; ++i) {
      char r[96];
      std::snprintf(r, sizeof r, "%s%.0f/%.0f", i ? ", " : "", seq_rate[i], par_rate[i]);
      rates += r;
    }
    out.notes.push_back("build: states/s per pass, t1/tn: " + rates);
    if (!ctx_.trace) return;

    const double p = static_cast<double>(passes);
    Sheet& l = out.layer;
    l["build.small_t1_s"] = {median(class_s[0][0]), "s"};
    l["build.small_tn_s"] = {median(class_s[0][1]), "s"};
    l["build.large_t1_s"] = {median(class_s[1][0]), "s"};
    l["build.large_tn_s"] = {median(class_s[1][1]), "s"};
    l["build.chain_traversals"] = {(sum_t1.chain_traversals + sum_tn.chain_traversals) / p, "count"};
    l["build.fingerprint_collisions"] = {(sum_t1.fingerprint_collisions + sum_tn.fingerprint_collisions) / p, "count"};
    l["build.hash_cas_failures"] = {sum_tn.hash_cas_failures / p, "count"};
    l["build.steals"] = {sum_tn.steals / p, "count"};
    l["build.steal_failures"] = {sum_tn.steal_failures / p, "count"};
    l["build.global_queue_states"] = {sum_tn.global_queue_states / p, "count"};
    l["build.delta_reallocations"] = {sum_t1.delta_reallocations / p, "count"};
    l["compress.phase_s"] = {sum_compressed.compression_seconds / p, "s"};
    l["compress.ratio"] = {static_cast<double>(sum_compressed.mapping_bytes_uncompressed) /
                               static_cast<double>(sum_compressed.mapping_bytes_stored),
                           "x"};
    layer_probes(probe_sfa, out);
  }

 private:
  // The large class comes from the embedded PROSITE motifs, the same for
  // every seed: the synthetic draw rarely lands in 90k-160k states, and
  // searching it for one costs seconds of set-up.  The small class is a
  // seeded shuffle of the synthetic motifs, sized under a 20k-state cap so
  // an exploding candidate is cut off early.  The set-up build also yields
  // the reference state count every timed build is checked against.
  void select_patterns() {
    std::vector<sfa::NamedPattern> candidates = sfa::benchmark_patterns(kCandidates, ctx_.seed);
    const std::size_t embedded = sfa::prosite_samples().size();
    sfa::Xoshiro256 rng(ctx_.seed ^ 0xB01DFACEull);
    for (std::size_t i = candidates.size(); i > embedded + 1; --i)
      std::swap(candidates[i - 1], candidates[embedded + rng.below(i - embedded)]);
    std::size_t small = 0, large = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const bool synthetic = i >= embedded;
      if (synthetic ? small == kSmall : large == kLarge) continue;
      std::optional<Item> item = compile_and_size(candidates[i], synthetic ? kSmallMax : kLargeMax);
      if (!item) continue;
      if (synthetic && item->states >= kSmallMin) {
        ++small;
      } else if (!synthetic && item->states >= kLargeMin) {
        item->cls = SizeClass::kLarge;
        ++large;
      } else {
        continue;
      }
      items_.push_back(std::move(*item));
    }
    if (small < kSmall || large < kLarge)
      throw std::runtime_error("build set-up: too few tractable patterns for seed " +
                               std::to_string(ctx_.seed));
  }

  std::optional<Item> compile_and_size(const sfa::NamedPattern& p, std::uint64_t max_states) {
    if (wildcard_positions(p.pattern) > kMaxWildcards) return std::nullopt;
    Item item{p.id, SizeClass::kSmall, Dfa(1), 0, 0};
    try {
      Span span("automata.compile_prosite");
      item.dfa = sfa::compile_prosite(p.pattern);
    } catch (const std::exception&) {
      return std::nullopt;  // not every synthetic draw parses
    }
    if (item.dfa.size() > kMaxDfa || !size_item(item, max_states)) return std::nullopt;
    return item;
  }

  // Sizes an item with the parallel builder; false when the SFA exceeds
  // `max_states`.
  bool size_item(Item& item, std::uint64_t max_states) {
    BuildOptions o;
    o.num_threads = ctx_.threads;
    o.keep_mappings = false;
    if (max_states != ~0ull) o.max_states = max_states;
    BuildStats st;
    try {
      Span span("setup.size_build");
      sfa::build_sfa(item.dfa, BuildMethod::kParallel, o, &st);
    } catch (const std::exception&) {
      return false;
    }
    item.states = st.sfa_states;
    item.mapping_bytes = st.mapping_bytes_uncompressed;
    return true;
  }

  // One timed build, then an untimed check of the result against the DFA.
  double timed_build(const Item& item, BuildMethod method, unsigned threads,
                     std::size_t threshold, BuildStats& stats, Sfa* keep) {
    BuildOptions o;
    o.num_threads = threads;
    o.memory_threshold_bytes = threshold;
    Sfa sfa;
    double seconds = 0;
    {
      Span span(threshold != 0             ? "build.build_sfa.compressed"
                : method == BuildMethod::kParallel ? "build.build_sfa.tn"
                                                   : "build.build_sfa.t1");
      const Clock::time_point t0 = Clock::now();
      sfa = sfa::build_sfa(item.dfa, method, o, &stats);
      seconds = seconds_since(t0);
    }
    {
      Span span("check.verify_sfa");
      if (!verify(sfa, item.dfa)) stats.sfa_states = 0;  // fails the state check
    }
    if (keep != nullptr) *keep = std::move(sfa);
    return seconds;
  }

  static void accumulate(BuildStats& sum, const BuildStats& s) {
    sum.chain_traversals += s.chain_traversals;
    sum.fingerprint_collisions += s.fingerprint_collisions;
    sum.hash_cas_failures += s.hash_cas_failures;
    sum.steals += s.steals;
    sum.steal_failures += s.steal_failures;
    sum.global_queue_states += s.global_queue_states;
    sum.delta_reallocations += s.delta_reallocations;
    sum.compression_seconds += s.compression_seconds;
    sum.mapping_bytes_uncompressed += s.mapping_bytes_uncompressed;
    sum.mapping_bytes_stored += s.mapping_bytes_stored;
  }

  std::string item_list() const {
    std::string out;
    for (const Item& item : items_) {
      if (!out.empty()) out += ", ";
      out += item.id + " (" + std::to_string(item.states) + ")";
    }
    return out;
  }

  // Successor generation, fingerprinting and interning over a sample of
  // the large SFA's mappings, each timed from outside its layer.
  void layer_probes(const Sfa& sfa, PhaseResult& out) {
    const Item& large = *std::find_if(items_.begin(), items_.end(), [](const Item& i) {
      return i.cls == SizeClass::kLarge;
    });
    const unsigned n = large.dfa.size();
    const unsigned k = large.dfa.num_symbols();
    std::vector<std::uint16_t> delta(static_cast<std::size_t>(n) * k);
    for (unsigned q = 0; q < n; ++q)
      for (unsigned s = 0; s < k; ++s)
        delta[static_cast<std::size_t>(q) * k + s] =
            static_cast<std::uint16_t>(large.dfa.transition(q, static_cast<sfa::Symbol>(s)));
    const std::size_t samples = std::min<std::size_t>(kLayerSamples, sfa.num_states());
    std::vector<std::uint16_t> src(samples * n);
    std::vector<std::uint32_t> mapping;
    for (std::size_t i = 0; i < samples; ++i) {
      sfa.mapping(static_cast<Sfa::StateId>(i * sfa.num_states() / samples), mapping);
      for (unsigned q = 0; q < n; ++q) src[i * n + q] = static_cast<std::uint16_t>(mapping[q]);
    }

    // Successor rows of every sampled state: k mappings of n cells each.
    std::vector<std::uint16_t> succ(samples * k * n);
    Clock::time_point t0 = Clock::now();
    {
      Span span("simd.successors_transposed");
      for (std::size_t i = 0; i < samples; ++i)
        sfa::successors_transposed<std::uint16_t>(delta.data(), k, &src[i * n], n,
                                                  &succ[i * k * n]);
    }
    out.layer["simd.successors_ns_per_state"] = {seconds_since(t0) * 1e9 / samples, "ns/state"};

    const std::size_t ops = samples * k;
    std::vector<InternNode> nodes(ops);
    t0 = Clock::now();
    {
      Span span("hash.city_hash64");
      for (std::size_t i = 0; i < ops; ++i) {
        nodes[i].cells = &succ[i * n];
        nodes[i].n = n;
        nodes[i].fp = sfa::city_hash64(nodes[i].cells, n * sizeof(std::uint16_t));
      }
    }
    out.layer["hash.fingerprint_ns_per_state"] = {seconds_since(t0) * 1e9 / ops, "ns/state"};

    // Insert then find every successor from nproc pool workers; the
    // successors repeat, so inserts meet existing states as in a build.
    sfa::LockFreeHashSet<InternNode, InternTraits> set(1u << 14);
    std::atomic<std::uint64_t> found{0};
    const unsigned threads = ctx_.threads;
    t0 = Clock::now();
    {
      Span span("concurrent.lockfree_hash_set");
      sfa::scan::default_executor().for_chunks(threads, [&](unsigned t) {
        std::uint64_t hits = 0;
        for (std::size_t i = t; i < ops; i += threads) set.insert_if_absent(&nodes[i]);
        for (std::size_t i = t; i < ops; i += threads)
          hits += set.find(nodes[i].fp, nodes[i]) != nullptr;
        found.fetch_add(hits);
      });
    }
    out.layer["concurrent.intern_ns_per_op"] = {seconds_since(t0) * 1e9 / (2.0 * ops), "ns/op"};
    out.tally.check(found.load() == ops, "intern probe: a successor inserted was not found");
  }

  const Context ctx_;
  std::vector<Item> items_;
  std::size_t r400_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_build_phase(const Context& ctx) {
  return std::make_unique<BuildPhase>(ctx);
}

}  // namespace perfbench
