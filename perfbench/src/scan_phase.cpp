// Scan phase: matching over a 64 MiB seeded amino-acid corpus, reported in
// ns/symbol as in Sin'ya & Matsuzaki's SFA matching.  Every SFA is built in
// set-up, so no construction is timed.
//
// The accept runs use the absorbing motif C-x(2)-C-x(3)-[LIVMFYWC] (32 DFA
// states, 1,349 SFA states).  The count run uses its end-anchored form,
// whose acceptance does not absorb, so the compose-then-rescan pass of
// run_count (§IV-D) really runs and the count is a real match count.

#include <algorithm>
#include <atomic>

#include "phases.hpp"
#include "sfa/core/build.hpp"
#include "sfa/core/lazy_matcher.hpp"
#include "sfa/core/match.hpp"
#include "sfa/core/scan/engine.hpp"
#include "sfa/core/scan/executor.hpp"
#include "sfa/core/scan/tasks.hpp"
#include "sfa/prosite/prosite_parser.hpp"
#include "sfa/support/rng.hpp"

namespace perfbench {
namespace {

using sfa::Dfa;
using sfa::Sfa;
using sfa::Symbol;
namespace scan = sfa::scan;
namespace table = sfa::table;

constexpr std::size_t kCorpusSymbols = 64u << 20;
constexpr std::size_t kD2faSymbols = 16u << 20;   // d2fa walks are ~7x dense
constexpr std::size_t kTableSymbols = 4u << 20;   // per-layout next() probe
constexpr std::size_t kPlantEvery = 64u << 10;    // one planted motif per 64 KiB
constexpr const char* kAcceptMotif = "C-x(2)-C-x(3)-[LIVMFYWC].";
constexpr const char* kCountMotif = "C-x(2)-C-x(3)-[LIVMFYWC]>.";
// The members of the motif's language that get planted (C..C...L etc.).
constexpr const char* kPlants[] = {"CAACDEFL", "CWYCHIKM", "CPQCRSTW", "CGGCAAAC"};

struct Walk {
  Dfa::StateId final_state = 0;
  std::size_t count = 0;
  std::vector<std::size_t> positions;
};

// The independent reference: a plain DFA walk, one symbol at a time.
Walk walk(const Dfa& dfa, const Symbol* data, std::size_t len, bool positions) {
  Walk w;
  Dfa::StateId q = dfa.start();
  for (std::size_t i = 0; i < len; ++i) {
    q = dfa.transition(q, data[i]);
    if (dfa.accepting(q)) {
      ++w.count;
      if (positions) w.positions.push_back(i + 1);
    }
  }
  w.final_state = q;
  return w;
}

Sfa build(const Dfa& dfa) {
  Span span("setup.build_sfa");
  return sfa::build_sfa(dfa, sfa::BuildMethod::kTransposed);
}

class ScanPhase final : public Phase {
 public:
  explicit ScanPhase(const Context& ctx) : ctx_(ctx) {
    Span span("setup.scan");
    make_corpus();
    {
      Span s("automata.compile_prosite");
      accept_dfa_ = sfa::compile_prosite(kAcceptMotif);
    }
    {
      Span s("automata.compile_prosite");
      count_dfa_ = sfa::compile_prosite(kCountMotif);
    }
    accept_sfa_ = build(accept_dfa_);
    count_sfa_ = build(count_dfa_);
    d2fa_sfa_ = accept_sfa_;
    d2fa_sfa_.convert_table_layout(table::TableLayout::kD2fa);

    Span ref("setup.reference_walk");
    accept_ref_ = walk(accept_dfa_, corpus_.data(), corpus_.size(), false);
    d2fa_ref_ = walk(accept_dfa_, corpus_.data(), kD2faSymbols, false);
    count_ref_ = walk(count_dfa_, corpus_.data(), corpus_.size(), true);
    if (ctx.wrong_reference) count_ref_.count += 1;
  }

  const char* name() const override { return "scan"; }

  void run(double budget_s, PhaseResult& out) override {
    const Symbol* data = corpus_.data();
    const std::size_t len = corpus_.size();
    const double n = static_cast<double>(len);
    scan::Executor& pool = scan::default_executor();
    scan::Executor& inline_exec = scan::inline_executor();
    std::vector<double> t1, tn, d2fa, lazy, count, accept_on_count;
    sfa::LazyMatchStats lazy_stats;
    std::size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    while (passes < 2 || seconds_since(t0) < budget_s) {
      Span pass_span("scan.pass");
      scan::EagerEngine accept(accept_sfa_, &accept_dfa_);
      t1.push_back(timed_accept("scan.run_accept.dense.t1", accept, inline_exec, len, 1,
                                accept_ref_, out) / n);
      tn.push_back(timed_accept("scan.run_accept.dense.tn", accept, pool, len,
                                ctx_.threads, accept_ref_, out) / n);
      scan::EagerEngine d2fa_engine(d2fa_sfa_, &accept_dfa_);
      d2fa.push_back(timed_accept("scan.run_accept.d2fa.t1", d2fa_engine, inline_exec,
                                  kD2faSymbols, 1, d2fa_ref_, out) /
                     static_cast<double>(kD2faSymbols));
      {
        // A fresh matcher per pass, as `sfa match --lazy` builds one per run.
        sfa::LazyMatchOptions options;
        options.num_threads = 1;
        Span span("lazy.match.t1");
        const Clock::time_point s = Clock::now();
        sfa::LazyMatcher matcher(accept_dfa_, options);
        const sfa::MatchResult r = matcher.match(corpus_);
        lazy.push_back(seconds_since(s) * 1e9 / n);
        lazy_stats = matcher.stats();
        out.tally.check(r.accepted == accept_dfa_.accepting(accept_ref_.final_state) &&
                            r.final_dfa_state == accept_ref_.final_state,
                        "lazy accept disagrees with the DFA walk");
      }
      scan::EagerEngine counter(count_sfa_, &count_dfa_);
      {
        Span span("scan.run_count.tn");
        const Clock::time_point s = Clock::now();
        const std::size_t c = scan::run_count(counter, pool, data, len, ctx_.threads);
        count.push_back(seconds_since(s) * 1e9 / n);
        out.tally.check(c == count_ref_.count, "run_count = " + std::to_string(c) +
                                                   ", DFA walk = " +
                                                   std::to_string(count_ref_.count));
      }
      if (ctx_.trace)
        accept_on_count.push_back(timed_accept("scan.run_accept.count.tn", counter, pool,
                                               len, ctx_.threads, count_ref_, out) / n);
      ++passes;
    }
    check_find(out);

    const double matches_per_mib = static_cast<double>(count_ref_.count) / (n / (1u << 20));
    out.e2e["scan_ns_per_symbol_t1"] = {median(t1), "ns/symbol"};
    out.e2e["scan_ns_per_symbol_tn"] = {median(tn), "ns/symbol"};
    out.e2e["count_ns_per_symbol_tn"] = {median(count), "ns/symbol"};
    out.e2e["d2fa_ns_per_symbol_t1"] = {median(d2fa), "ns/symbol"};
    out.e2e["lazy_ns_per_symbol_t1"] = {median(lazy), "ns/symbol"};
    char note[256];
    std::snprintf(note, sizeof note,
                  "scan: %zu passes over %zu MiB; count_ns_per_symbol_tn at %.1f "
                  "matches/MiB (%zu matches), find at the same rate",
                  passes, len >> 20, matches_per_mib, count_ref_.count);
    out.notes.push_back(note);
    if (!ctx_.trace) return;

    Sheet& l = out.layer;
    l["scan.rescan_ns_per_symbol"] = {median(count) - median(accept_on_count), "ns/symbol"};
    l["lazy.interned_states"] = {static_cast<double>(lazy_stats.interned_states), "count"};
    const double lookups = static_cast<double>(lazy_stats.cache_hits + lazy_stats.cache_misses);
    l["lazy.hit_ratio"] = {static_cast<double>(lazy_stats.cache_hits) / lookups, "hits/lookup"};
    out.notes.push_back("lazy.hit_ratio base: " + std::to_string(static_cast<std::uint64_t>(lookups)) +
                        " successor lookups of one pass");
    table_probes(l);
    engine_probes(l);
    pool_probes(l);
  }

 private:
  void make_corpus() {
    Span span("setup.corpus");
    sfa::Xoshiro256 rng(ctx_.seed);
    corpus_.resize(kCorpusSymbols);
    const unsigned k = sfa::Alphabet::amino().size();
    for (Symbol& s : corpus_) s = static_cast<Symbol>(rng.below(k));
    const sfa::Alphabet& amino = sfa::Alphabet::amino();
    for (std::size_t block = 0; block + kPlantEvery <= corpus_.size(); block += kPlantEvery) {
      const std::vector<Symbol> plant = amino.encode(kPlants[rng.below(std::size(kPlants))]);
      const std::size_t at = block + rng.below(kPlantEvery - plant.size());
      std::copy(plant.begin(), plant.end(), corpus_.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }

  // Times one run_accept and checks it against `ref`; returns nanoseconds.
  double timed_accept(const char* span_name, scan::EagerEngine& engine, scan::Executor& exec,
                      std::size_t len, unsigned chunks, const Walk& ref, PhaseResult& out) {
    sfa::MatchResult r;
    double ns = 0;
    {
      Span span(span_name);
      const Clock::time_point s = Clock::now();
      r = scan::run_accept(engine, exec, corpus_.data(), len, chunks);
      ns = seconds_since(s) * 1e9;
    }
    out.tally.check(r.final_dfa_state == ref.final_state,
                    std::string(span_name) + ": final state " +
                        std::to_string(r.final_dfa_state) + ", DFA walk " +
                        std::to_string(ref.final_state));
    return ns;
  }

  // find-first and find-all at nproc chunks on the end-anchored motif.
  void check_find(PhaseResult& out) {
    scan::EagerEngine engine(count_sfa_, &count_dfa_);
    scan::Executor& pool = scan::default_executor();
    std::size_t first = 0;
    std::vector<std::size_t> all;
    {
      Span span("scan.run_find_first.tn");
      first = scan::run_find_first(engine, pool, corpus_.data(), corpus_.size(), ctx_.threads);
    }
    {
      Span span("scan.run_find_all.tn");
      all = scan::run_find_all(engine, pool, corpus_.data(), corpus_.size(), ctx_.threads);
    }
    const std::size_t ref_first =
        count_ref_.positions.empty() ? sfa::kNoMatch : count_ref_.positions.front();
    out.tally.check(first == ref_first, "run_find_first disagrees with the DFA walk");
    out.tally.check(all == count_ref_.positions, "run_find_all disagrees with the DFA walk");
  }

  void table_probes(Sheet& l) {
    const table::TransitionTable dense = accept_sfa_.table();
    const table::TransitionTable dedup = dense.convert(table::TableLayout::kRowDedup);
    const table::TransitionTable& d2fa = d2fa_sfa_.table();
    const std::pair<const char*, const table::TransitionTable*> layouts[] = {
        {"dense", &dense}, {"dedup", &dedup}, {"d2fa", &d2fa}};
    for (const auto& [layout, t] : layouts) {
      std::uint32_t s = accept_sfa_.start();
      const Clock::time_point t0 = Clock::now();
      {
        Span span("table.next");
        for (std::size_t i = 0; i < kTableSymbols; ++i) s = t->next(s, corpus_[i]);
      }
      const double ns = seconds_since(t0) * 1e9 / static_cast<double>(kTableSymbols);
      keep(s);
      l[std::string("table.next_ns.") + layout] = {ns, "ns/symbol"};
      l[std::string("table.bytes.") + layout] = {static_cast<double>(t->resident_bytes()), "bytes"};
    }
  }

  // Pass 1 inline, the compose sweep, and per-chunk times of a
  // benchmark-owned chunk body on the pool versus inline.
  void engine_probes(Sheet& l) {
    const Symbol* data = corpus_.data();
    const std::size_t len = corpus_.size();
    const unsigned chunks = ctx_.threads;
    const auto ranges = sfa::detail::chunk_ranges(len, chunks);
    scan::EagerEngine engine(accept_sfa_, &accept_dfa_);
    Clock::time_point t0 = Clock::now();
    {
      Span span("scan.scan_chunks.inline");
      engine.scan_chunks(data, ranges, scan::inline_executor());
    }
    l["scan.pass1_ns_per_symbol"] = {seconds_since(t0) * 1e9 / static_cast<double>(len), "ns/symbol"};
    std::uint32_t q = accept_dfa_.start();
    double compose_us = 0;
    {
      // The sweep takes about a microsecond, so the span stays outside the
      // timed part.
      Span span("scan.chunk_exit");
      t0 = Clock::now();
      for (unsigned c = 0; c < chunks; ++c) q = engine.chunk_exit(c, q, data);
      compose_us = seconds_since(t0) * 1e6;
    }
    keep(q);
    l["scan.compose_us"] = {compose_us, "us"};

    std::vector<double> chunk_ns(chunks);
    std::atomic<std::uint32_t> sink{0};
    auto body = [&](unsigned c) {
      const Clock::time_point s = Clock::now();
      const auto [b, e] = ranges[c];
      sink.fetch_xor(accept_sfa_.run(accept_sfa_.start(), data + b, e - b));
      chunk_ns[c] = seconds_since(s) * 1e9;
    };
    auto mean_ns_per_symbol = [&] {
      double sum = 0;
      for (double ns : chunk_ns) sum += ns;
      return sum / static_cast<double>(len);
    };
    {
      Span span("scan.chunk_body.inline");
      scan::inline_executor().for_chunks(chunks, body);
    }
    const double inline_ns = mean_ns_per_symbol();
    {
      Span span("scan.chunk_body.pool");
      scan::default_executor().for_chunks(chunks, body);
    }
    const double pool_ns = mean_ns_per_symbol();
    const double max_ns = *std::max_element(chunk_ns.begin(), chunk_ns.end());
    double mean = 0;
    for (double ns : chunk_ns) mean += ns / chunks;
    l["scan.chunk_max_over_mean"] = {max_ns / mean, "x"};
    l["scan.work_inflation"] = {pool_ns / inline_ns, "x"};
  }

  // Empty-body dispatches: call-to-return time and call-to-body-start time.
  void pool_probes(Sheet& l) {
    constexpr int kDispatches = 2000;
    scan::Executor& pool = scan::default_executor();
    std::vector<double> dispatch_us, wake_us;
    std::vector<Clock::time_point> started(ctx_.threads);
    Span span("pool.for_chunks.empty");
    for (int i = 0; i < kDispatches; ++i) {
      const Clock::time_point t0 = Clock::now();
      pool.for_chunks(ctx_.threads, [&](unsigned c) { started[c] = Clock::now(); });
      dispatch_us.push_back(seconds_since(t0) * 1e6);
      double wake = 0;
      for (const Clock::time_point& s : started)
        wake += std::chrono::duration<double>(s - t0).count() * 1e6;
      wake_us.push_back(wake / ctx_.threads);
    }
    l["pool.dispatch_us"] = {median(dispatch_us), "us"};
    l["pool.wake_us"] = {median(wake_us), "us"};
  }

  const Context ctx_;
  std::vector<Symbol> corpus_;
  Dfa accept_dfa_{1}, count_dfa_{1};
  Sfa accept_sfa_, count_sfa_, d2fa_sfa_;
  Walk accept_ref_, d2fa_ref_, count_ref_;
};

}  // namespace

std::unique_ptr<Phase> make_scan_phase(const Context& ctx) {
  return std::make_unique<ScanPhase>(ctx);
}

}  // namespace perfbench
