// Serve phase: a MatchService answering many short requests, where dispatch,
// batching and cache misses matter more than the δ-walk.
//
// K pattern sets of end-anchored PROSITE members are registered and warmed
// in set-up.  Requests draw a task (accept, count, find-first, find-all)
// and a heavy-tailed length (1-256 KiB) from the seed and run on the eager
// engine.  A set the service caches DFA-only gets no requests: a fresh lazy
// matcher per request on its multi-thousand-state union DFA costs ~100 ms
// and would swamp the measurement; the scan phase measures the lazy
// engine instead.  Batches hold at most 16 requests, and the calling
// thread is the load generator.
//
//   phase 1  closed loop, warm cache, no churn: requests/s.
//   phase 2  open loop at a fixed rate with a new set registered every
//            kChurnEvery requests under a cache budget smaller than the
//            live sets, so compiles, builds and evictions sit in the tail.
//            Latency is taken from each request's due time.

#include <algorithm>
#include <cmath>
#include <thread>

#include "phases.hpp"
#include "sfa/core/match.hpp"
#include "sfa/prosite/patterns.hpp"
#include "sfa/prosite/prosite_parser.hpp"
#include "sfa/serve/match_service.hpp"
#include "sfa/support/rng.hpp"

namespace perfbench {
namespace {

using sfa::Dfa;
using sfa::Symbol;
namespace serve = sfa::serve;

constexpr std::size_t kRequestCorpus = 8u << 20;
constexpr std::size_t kMinRequest = 1u << 10, kMaxRequest = 256u << 10;
constexpr double kParetoAlpha = 1.1;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kWarmSets = 16;
constexpr std::size_t kMembersMin = 2, kMembersMax = 3;
constexpr std::uint32_t kMaxMemberDfa = 40;
constexpr std::size_t kMaxMemberText = 24;
constexpr std::uint64_t kCacheBudget = 1ull << 20;
// Requests/s: about half of phase 1's rate on a loaded 4-vCPU host (a
// quarter of it on a quiet one), so contention does not overload the loop.
constexpr double kPhase2Rate = 8000;
constexpr std::size_t kChurnEvery = 1000;
constexpr std::size_t kChurnMembers = 2;
constexpr double kChurnShare = 0.15;  // requests aimed at recent churn sets
constexpr std::size_t kChurnWindow = 4;
constexpr std::size_t kCheckEvery = 4;  // every 4th response is checked

struct SetInfo {
  std::uint64_t handle = 0;
  std::vector<std::size_t> members;  // indexes into member_dfas_
};

struct Request {
  serve::MatchRequest req;
  std::size_t set = 0;  // index into sets_
};

// End-anchors a PROSITE pattern: "P." becomes "P>." unless already anchored.
std::string end_anchored(std::string p) {
  if (!p.empty() && p.back() == '.') p.pop_back();
  if (p.empty() || p.back() != '>') p += '>';
  return p + '.';
}

class ServePhase final : public Phase {
 public:
  explicit ServePhase(const Context& ctx)
      : ctx_(ctx), rng_(ctx.seed ^ 0x5E7E5E7Eull), service_(options()) {
    Span span("setup.serve");
    make_corpus();
    make_member_pool();
    // A set whose entry alone exceeds its share of half the budget is left
    // out, so the warm sets fit together and phase 1 never misses.  So is a
    // DFA-only set (see above).
    for (std::size_t i = 0; sets_.size() < kWarmSets; ++i) {
      if (i > 32 * kWarmSets) throw std::runtime_error("serve set-up: no warm sets fit the cache");
      SetInfo set = draw_set(kMembersMin + rng_.below(kMembersMax - kMembersMin + 1));
      if (ctx_.trace) {
        Span s("automata.compile_union");
        service_.registry().compile_union(service_.set_patterns(set.handle));
      }
      Span s("setup.resolve");
      const serve::SfaCache::EntryPtr entry = service_.resolve(set.handle);
      if (entry->sfa && entry->bytes <= kCacheBudget / 2 / kWarmSets) sets_.push_back(std::move(set));
    }
    // Touch the warm sets last so left-out sets are the first evicted.
    for (const SetInfo& set : sets_) service_.resolve(set.handle);
    warm_sets_ = sets_.size();
    const serve::SfaCacheStats cache = service_.stats().cache;
    char note[160];
    std::snprintf(note, sizeof note, "serve: %zu warm sets, %llu KiB resident of a %llu KiB budget",
                  warm_sets_, static_cast<unsigned long long>(cache.resident_bytes >> 10),
                  static_cast<unsigned long long>(kCacheBudget >> 10));
    setup_note_ = note;
  }

  const char* name() const override { return "serve"; }

  void run(double budget_s, PhaseResult& out) override {
    out.notes.push_back(setup_note_);
    closed_loop(budget_s * 0.4, out);
    open_loop(budget_s * 0.6, out);
  }

 private:
  static serve::ServiceOptions options() {
    serve::ServiceOptions o;
    o.cache.memory_budget_bytes = kCacheBudget;
    return o;
  }

  void make_corpus() {
    corpus_.resize(kRequestCorpus);
    const unsigned k = sfa::Alphabet::amino().size();
    for (Symbol& s : corpus_) s = static_cast<Symbol>(rng_.below(k));
  }

  // Small end-anchored members from the seeded PROSITE draw, each with its
  // own compiled DFA: the reference walks these one by one.
  void make_member_pool() {
    for (const sfa::NamedPattern& p : sfa::benchmark_patterns(96, ctx_.seed)) {
      if (p.pattern.size() > kMaxMemberText || p.pattern.front() == '<') continue;
      const std::string text = end_anchored(p.pattern);
      Dfa dfa(1);
      try {
        Span span("automata.compile_prosite");
        dfa = sfa::compile_prosite(text);
      } catch (const std::exception&) {
        continue;
      }
      if (dfa.size() > kMaxMemberDfa) continue;
      member_specs_.push_back({p.id, serve::PatternSyntax::kProsite, text});
      member_dfas_.push_back(std::move(dfa));
    }
    if (member_specs_.size() < 2 * kMembersMax)
      throw std::runtime_error("serve set-up: too few small PROSITE members");
  }

  SetInfo draw_set(std::size_t m) {
    SetInfo set;
    std::vector<serve::PatternSpec> specs;
    while (set.members.size() < m) {
      const std::size_t i = rng_.below(member_specs_.size());
      if (std::find(set.members.begin(), set.members.end(), i) != set.members.end()) continue;
      set.members.push_back(i);
      specs.push_back(member_specs_[i]);
    }
    set.handle = service_.register_set(std::move(specs));
    return set;
  }

  Request draw_request(std::size_t set_index) {
    Request r;
    r.set = set_index;
    const double u = 1.0 - rng_.unit();  // (0, 1]
    const std::size_t len = std::min<std::size_t>(
        kMaxRequest, static_cast<std::size_t>(static_cast<double>(kMinRequest) *
                                              std::pow(u, -1.0 / kParetoAlpha)));
    r.req.set = sets_[set_index].handle;
    r.req.task = static_cast<serve::TaskKind>(rng_.below(4));
    r.req.engine = serve::EngineChoice::kEager;
    r.req.data = corpus_.data() + rng_.below(corpus_.size() - len);
    r.req.len = len;
    return r;
  }

  // The reference: every member DFA walked over the request on its own; the
  // set accepts at a position when some member does.
  bool matches_reference(const Request& r, const serve::MatchResponse& resp) {
    Span span("check.reference_walk");
    std::vector<std::size_t> ends;
    std::vector<Dfa::StateId> q;
    const std::vector<std::size_t>& members = sets_[r.set].members;
    for (std::size_t m : members) q.push_back(member_dfas_[m].start());
    for (std::size_t i = 0; i < r.req.len; ++i) {
      bool hit = false;
      for (std::size_t j = 0; j < members.size(); ++j) {
        const Dfa& d = member_dfas_[members[j]];
        q[j] = d.transition(q[j], r.req.data[i]);
        hit |= d.accepting(q[j]);
      }
      if (hit) ends.push_back(i + 1);
    }
    bool accepted = !ends.empty() && ends.back() == r.req.len;
    std::size_t first = ends.empty() ? sfa::kNoMatch : ends.front();
    if (ctx_.wrong_reference && checked_++ == 0) {  // self-test: one wrong reference
      accepted = !accepted;
      first += 1;
      ends.push_back(r.req.len + 1);
    }
    switch (r.req.task) {
      case serve::TaskKind::kAccept:
        return resp.accepted == accepted;
      case serve::TaskKind::kCount:
        return resp.count == ends.size();
      case serve::TaskKind::kFindFirst:
        return resp.first == first;
      case serve::TaskKind::kFindAll:
        return resp.positions == ends;
    }
    return false;
  }

  // Refused requests fail at once; every kCheckEvery-th answer is kept and
  // checked against the reference after the loop, off the timed path.
  void record(const std::vector<Request>& batch,
              std::vector<serve::MatchResponse>& responses, PhaseResult& out) {
    for (std::size_t i = 0; i < batch.size(); ++i, ++issued_) {
      if (!responses[i].ok) {
        out.tally.check(false, "serve request refused: " + responses[i].error);
        continue;
      }
      if (batch[i].req.task == serve::TaskKind::kCount) {
        count_matches_ += responses[i].count;
        count_symbols_ += batch[i].req.len;
      }
      if (issued_ % kCheckEvery == 0) {
        sampled_.emplace_back(batch[i], std::move(responses[i]));
      } else {
        out.tally.check(true, "");
      }
    }
  }

  void check_sampled(PhaseResult& out) {
    for (const auto& [request, response] : sampled_)
      out.tally.check(matches_reference(request, response),
                      std::string("serve ") + serve::task_kind_name(request.req.task) +
                          " answer differs from the member walk");
    sampled_.clear();
  }

  std::vector<serve::MatchResponse> submit(const std::vector<Request>& batch) {
    std::vector<serve::MatchRequest> reqs;
    for (const Request& r : batch) reqs.push_back(r.req);
    Span span("serve.submit_batch");
    return service_.submit_batch(reqs);
  }

  void closed_loop(double budget_s, PhaseResult& out) {
    Span span("serve.phase1");
    std::vector<double> window_rates, batch_ms;
    std::size_t window_requests = 0;
    double window_s = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      std::vector<Request> batch;
      for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(draw_request(rng_.below(warm_sets_)));
      const Clock::time_point b0 = Clock::now();
      std::vector<serve::MatchResponse> responses = submit(batch);
      const double seconds = seconds_since(b0);
      batch_ms.push_back(seconds * 1e3);
      record(batch, responses, out);
      // Windows add up service time only, so drawing and recording
      // requests does not count against the service.
      window_requests += batch.size();
      window_s += seconds;
      if (window_s >= 0.1) {
        window_rates.push_back(static_cast<double>(window_requests) / window_s);
        window_requests = 0;
        window_s = 0;
      }
    } while (seconds_since(t0) < budget_s || window_rates.size() < 3);
    check_sampled(out);
    out.e2e["serve_requests_per_s"] = {median(window_rates), "req/s"};
    if (ctx_.trace) out.layer["serve.batch_ms"] = {median(batch_ms), "ms"};
  }

  void open_loop(double budget_s, PhaseResult& out) {
    Span span("serve.phase2");
    const serve::ServiceStats before = service_.stats();
    const std::size_t total = static_cast<std::size_t>(kPhase2Rate * budget_s);
    const auto period = std::chrono::duration<double>(1.0 / kPhase2Rate);
    std::vector<double> latency_ms, wait_ms, lag_ms, resolve_ms;
    const Clock::time_point start = Clock::now();
    auto due = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    };
    std::size_t next = 0;
    auto churn_due = [&] { return next > 0 && next % kChurnEvery == 0 && churned_ < next / kChurnEvery; };
    while (next < total) {
      if (churn_due()) {
        ++churned_;
        SetInfo set = draw_set(kChurnMembers);
        bool eager = false;
        const Clock::time_point r0 = Clock::now();
        {
          Span s("serve.resolve");
          eager = service_.resolve(set.handle)->sfa.has_value();
        }
        resolve_ms.push_back(seconds_since(r0) * 1e3);
        if (eager) sets_.push_back(std::move(set));
      }
      Clock::time_point now = Clock::now();
      if (due(next) > now) {
        // Sleep while the next request is far off, then spin: a sleep alone
        // wakes tens of microseconds late, a few periods at this rate.
        if (due(next) - now > std::chrono::microseconds(300))
          std::this_thread::sleep_until(due(next) - std::chrono::microseconds(200));
        while (Clock::now() < due(next)) {
        }
        now = Clock::now();
        lag_ms.push_back(std::chrono::duration<double, std::milli>(now - due(next)).count());
      }
      std::vector<Request> batch;
      std::vector<Clock::time_point> dues;
      while (batch.size() < kBatch && next < total && due(next) <= now && !churn_due()) {
        batch.push_back(draw_request(pick_set()));
        dues.push_back(due(next));
        ++next;
      }
      if (batch.empty()) continue;
      const Clock::time_point b0 = Clock::now();
      std::vector<serve::MatchResponse> responses = submit(batch);
      const Clock::time_point b1 = Clock::now();
      for (const Clock::time_point& d : dues) {
        latency_ms.push_back(std::chrono::duration<double, std::milli>(b1 - d).count());
        wait_ms.push_back(std::chrono::duration<double, std::milli>(b0 - d).count());
      }
      record(batch, responses, out);
    }
    check_sampled(out);
    out.e2e["serve_p50_ms"] = {quantile(latency_ms, 0.5), "ms"};
    out.e2e["serve_p99_ms"] = {quantile(latency_ms, 0.99), "ms"};
    const serve::ServiceStats after = service_.stats();
    const std::uint64_t misses = after.cache.misses - before.cache.misses;
    const std::uint64_t hits = after.cache.hits - before.cache.hits;
    char note[320];
    std::snprintf(note, sizeof note,
                  "serve: phase 2 sent %zu requests at %.0f req/s, %zu churned sets, "
                  "%llu cache misses, %llu hits, %llu evictions, %zu samples beyond p99",
                  total, kPhase2Rate, churned_, static_cast<unsigned long long>(misses),
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(after.cache.evictions - before.cache.evictions),
                  latency_ms.size() / 100);
    out.notes.push_back(note);
    std::snprintf(note, sizeof note, "serve: count requests found %.1f matches/MiB",
                  static_cast<double>(count_matches_) / (static_cast<double>(count_symbols_) / (1u << 20)));
    out.notes.push_back(note);
    if (!ctx_.trace) return;
    Sheet& l = out.layer;
    const double requests = static_cast<double>(after.requests - before.requests);
    l["serve.batch_size"] = {requests / static_cast<double>(after.batches - before.batches), "requests"};
    l["serve.dispatches_per_request"] = {
        static_cast<double>(after.pool.pool_dispatches - before.pool.pool_dispatches) / requests,
        "dispatch/req"};
    l["serve.queue_wait_ms"] = {median(wait_ms), "ms"};
    l["serve.miss_resolve_ms"] = {median(resolve_ms), "ms"};
    l["serve.cache_hit_ratio"] = {static_cast<double>(hits) / static_cast<double>(hits + misses),
                                  "hits/lookup"};
    l["serve.evictions"] = {static_cast<double>(after.cache.evictions - before.cache.evictions),
                            "count"};
    l["serve.generator_lag_ms"] = {median(lag_ms), "ms"};
  }

  // Mostly the warm sets; a share goes to the last few churned sets, some of
  // which the cache has already evicted.
  std::size_t pick_set() {
    const std::size_t churn = sets_.size() - warm_sets_;
    if (churn > 0 && rng_.unit() < kChurnShare)
      return sets_.size() - 1 - rng_.below(std::min(churn, kChurnWindow));
    return rng_.below(warm_sets_);
  }

  const Context ctx_;
  sfa::Xoshiro256 rng_;
  serve::MatchService service_;
  std::vector<Symbol> corpus_;
  std::vector<serve::PatternSpec> member_specs_;
  std::vector<Dfa> member_dfas_;
  std::vector<SetInfo> sets_;
  std::size_t warm_sets_ = 0;
  std::size_t churned_ = 0;
  std::size_t issued_ = 0;
  std::uint64_t count_matches_ = 0, count_symbols_ = 0;  // over count requests
  std::string setup_note_;
  std::vector<std::pair<Request, serve::MatchResponse>> sampled_;
  std::size_t checked_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const Context& ctx) {
  return std::make_unique<ServePhase>(ctx);
}

}  // namespace perfbench
