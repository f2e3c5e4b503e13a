#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "analyze/scenario.hpp"
#include "exp/worker_pool.hpp"
#include "runner/scenarios.hpp"
#include "sim/random.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"

namespace perfbench {

namespace {

using namespace gfc;

/// Link failure probability of Table 1 and Fig 16's random fat-trees.
constexpr double kFailProb = 0.05;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a: the results digests printed beside the metrics.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte((v >> (8 * i)) & 0xff);
  }
  void add(const std::string& bytes) {
    for (const char c : bytes) add_byte(static_cast<unsigned char>(c));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void add_byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }

  std::uint64_t h_ = 14695981039346656037ull;
};

std::string json_digest(const gfc::analyze::Report& rep) {
  Digest d;
  d.add(rep.json());
  return d.hex();
}

std::string op_range(std::size_t first, std::size_t count) {
  return std::to_string(first) + "-" + std::to_string(first + count - 1);
}

double span_mean(const LayerTable& table, Segment seg, const char* name) {
  const auto it = table.find({seg, name});
  return it == table.end() ? 0 : it->second.mean_ms();
}

/// The config fig16_17_overall (and gfc-analyze's defaults) use.
runner::ScenarioConfig fig_config(runner::FcKind kind) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = 300'000;
  cfg.fc = runner::FcSetup::derive(kind, cfg.switch_buffer, cfg.link.rate,
                                   cfg.tau());
  return cfg;
}

/// Shared closed loop of the one-caller workloads.
class SerialWorkload : public Workload {
 public:
  LoopStats run(double seconds, std::size_t ops, Spans* spans) override {
    begin_run();
    ThreadLog* log = spans != nullptr ? spans->thread_log() : nullptr;
    LoopStats st;
    const Clock::time_point start = Clock::now();
    Clock::time_point end = start;
    // after_op() keeps outputs for the checks; its time is not the op's.
    Clock::duration untimed{};
    for (std::size_t i = 0;
         ops > 0 ? i < ops : ms_between(start + untimed, Clock::now()) < seconds * 1e3;
         ++i) {
      if (log != nullptr) log->begin_op(segment(), i);
      ++st.attempted;
      const Clock::time_point t0 = Clock::now();
      try {
        Span root(log, "op");
        op(i, log);
      } catch (const std::exception& e) {
        ++st.failed;
        std::fprintf(stderr, "%s op %zu failed: %s\n", name(), i, e.what());
        end = Clock::now();
        continue;
      }
      end = Clock::now();
      st.op_ms.push_back(ms_between(t0, end));
      after_op();
      const Clock::time_point resumed = Clock::now();
      untimed += resumed - end;
      end = resumed;
    }
    st.wall_s = ms_between(start + untimed, end) / 1e3;
    return st;
  }

 protected:
  /// Drops the results of the previous run.
  virtual void begin_run() = 0;
  /// One op; appends its result.
  virtual void op(std::size_t i, ThreadLog* log) = 0;
  /// Untimed hook after each completed op.
  virtual void after_op() {}
};

// --- screen_k8: Table 1's CBD-prone pre-filter at k=8 ----------------------

constexpr int kScreenK = 8;
constexpr std::size_t kScreenWarmupOps = 3;
/// Table 1's default k=8 sample count: the exact-repeat range.
constexpr std::size_t kScreenExactOps = 400;
constexpr std::size_t kScreenSampleStride = 97;
constexpr std::size_t kScreenFreeSamples = 6;
constexpr std::size_t kScreenProneSamples = 2;

class ScreenK8 final : public SerialWorkload {
 public:
  explicit ScreenK8(std::uint64_t seed) : first_(seed) {}
  const char* name() const override { return "screen_k8"; }
  Segment segment() const override { return kScreen; }

  void setup(Spans*) override {
    // The input list is the Table-1 seed range starting at first_; the
    // warm-up screens its first seeds once.
    begin_run();
    for (std::size_t i = 0; i < kScreenWarmupOps; ++i) op(i, nullptr);
    begin_run();
  }

  std::size_t traced_ops(double seconds) const override {
    return std::max<std::size_t>(40, static_cast<std::size_t>(10 * seconds));
  }

  void check(CheckLog* log) override {
    std::size_t free_samples = 0, prone_samples = 0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::string why = check_witness(r);
      const bool sample =
          r.prone ? prone_samples < kScreenProneSamples
                  : i % kScreenSampleStride == 0 && free_samples < kScreenFreeSamples;
      if (why.empty() && sample) {
        ++(r.prone ? prone_samples : free_samples);
        why = check_against_analyze(r, log);
      }
      if (!why.empty()) log->op_failed(name(), i, why);
    }
    const std::size_t n = std::min(results_.size(), kScreenExactOps);
    if (n == 0) return;
    Digest d;
    std::size_t prone = 0, covered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Result& r = results_[i];
      prone += r.prone;
      covered += r.covered;
      d.add(r.seed);
      d.add(r.prone);
      d.add(r.covered);
      for (const auto& [a, b] : r.cycle) {
        d.add(static_cast<std::uint64_t>(a));
        d.add(static_cast<std::uint64_t>(b));
      }
    }
    const std::string key = "screen_k8.seeds" + op_range(first_, n);
    log->exact(key + ".prone", std::to_string(prone));
    log->exact(key + ".covered", std::to_string(covered));
    log->exact(key + ".digest", d.hex());
  }

  void layer_metrics(const LayerTable& table, Metrics* out) const override {
    double vertices = 0, edges = 0, prone = 0;
    for (const Result& r : results_) {
      vertices += static_cast<double>(r.bdg_vertices);
      edges += static_cast<double>(r.bdg_edges);
      prone += r.prone;
    }
    const double n = static_cast<double>(results_.size());
    out->push_back({"topo.fattree_ms", span_mean(table, kScreen, "topo.fattree"), "ms"});
    out->push_back({"topo.routing_ms", span_mean(table, kScreen, "topo.routing"), "ms"});
    out->push_back({"topo.closure_ms", span_mean(table, kScreen, "topo.closure"), "ms"});
    out->push_back({"topo.find_cycle_ms", span_mean(table, kScreen, "topo.find_cycle"), "ms"});
    out->push_back({"topo.stress_ms", span_mean(table, kScreen, "topo.stress"), "ms"});
    out->push_back({"topo.bdg_vertices", ratio(vertices, n), "count"});
    out->push_back({"topo.bdg_edges", ratio(edges, n), "count"});
    out->push_back({"analyze.prone_share", ratio(prone, n), "ratio"});
    std::printf("  base: %.0f of %.0f screened seeds prone\n", prone, n);
  }

 protected:
  void begin_run() override { results_.clear(); }

  // The loop body of scan_scale in bench/table1_deadlock_cases.cpp.
  void op(std::size_t i, ThreadLog* log) override {
    Result r;
    r.seed = first_ + i;
    topo::Topology t;
    sim::Rng rng(r.seed * 7919 + static_cast<std::uint64_t>(kScreenK));
    {
      Span s(log, "topo.fattree");
      topo::build_fattree(t, kScreenK);
      r.failed = topo::random_failures(t, rng, kFailProb);
    }
    topo::RoutingTable routing;
    {
      Span s(log, "topo.routing");
      routing = topo::compute_shortest_paths(t);
    }
    analyze::CbdScreen screen;
    if (log == nullptr) {
      screen = analyze::screen_cbd(t, routing);
    } else {
      // screen_cbd's body, issued call by call so the closure and the
      // cycle search get spans of their own.
      Span s(log, "analyze.screen_cbd");
      topo::BufferDependencyGraph g(t);
      {
        Span c(log, "topo.closure");
        g.add_routing_closure(routing);
      }
      topo::CbdResult found;
      {
        Span c(log, "topo.find_cycle");
        found = g.find_cycle();
      }
      screen.prone = found.has_cbd;
      if (found.has_cbd) {
        screen.cycle = found.cycle;
        screen.witness = topo::describe_links(t, found.cycle);
      }
      r.bdg_vertices = g.vertex_count();
      for (const auto& out : g.adjacency()) r.bdg_edges += out.size();
    }
    r.prone = screen.prone;
    if (screen.prone) {
      Span s(log, "topo.stress");
      r.covered = topo::build_cbd_stress(t, routing, screen.cycle, rng).covered;
    }
    r.cycle = std::move(screen.cycle);
    r.witness = std::move(screen.witness);
    results_.push_back(std::move(r));
  }

 private:
  struct Result {
    std::uint64_t seed = 0;
    std::vector<topo::LinkIndex> failed;
    bool prone = false;
    bool covered = false;
    std::vector<topo::DirectedLink> cycle;
    std::string witness;
    std::size_t bdg_vertices = 0;  // traced ops only
    std::size_t bdg_edges = 0;
  };

  static topo::Topology rebuild(const Result& r) {
    topo::Topology t;
    topo::build_fattree(t, kScreenK);
    for (const topo::LinkIndex l : r.failed) t.fail_link(l);
    return t;
  }

  /// The witness exists only on prone seeds and is a closed, canonical
  /// cycle of up switch-to-switch links.
  static std::string check_witness(const Result& r) {
    if (r.prone == r.cycle.empty() || r.prone == r.witness.empty())
      return "witness present without a CBD, or missing with one";
    if (!r.prone) return r.covered ? "stress coverage without a CBD" : "";
    if (r.cycle.front() != *std::min_element(r.cycle.begin(), r.cycle.end()))
      return "witness is not canonical";
    const topo::Topology t = rebuild(r);
    for (std::size_t i = 0; i < r.cycle.size(); ++i) {
      const auto [a, b] = r.cycle[i];
      if (b != r.cycle[(i + 1) % r.cycle.size()].first)
        return "witness is not a closed cycle";
      if (t.is_host(a) || t.is_host(b)) return "witness leaves the switch layer";
      const auto& nbrs = t.neighbors(a);
      if (std::none_of(nbrs.begin(), nbrs.end(),
                       [b](const auto& n) { return n.first == b; }))
        return "witness uses a link that is down or absent";
    }
    if (r.witness != topo::describe_links(t, r.cycle))
      return "witness text does not match its links";
    return "";
  }

  /// The screen agrees with a full analyze() of the same fabric.
  static std::string check_against_analyze(const Result& r, CheckLog* log) {
    const topo::Topology t = rebuild(r);
    const topo::RoutingTable routing = topo::compute_shortest_paths(t);
    analyze::Input in;
    in.topo = &t;
    in.routing = &routing;
    in.cfg = fig_config(runner::FcKind::kPfc);
    const analyze::Report rep = analyze::analyze(in);
    if (rep.truncated) log->expect_warnings(1);
    if (r.prone == rep.cbd_free()) return "screen and analyze() disagree";
    if (r.prone && !rep.truncated && !analyze::report_contains_cycle(rep, r.cycle))
      return "witness is not among analyze()'s cycles";
    return "";
  }

  std::uint64_t first_;
  std::vector<Result> results_;
};

// --- sweep_k4f3: gfc-analyze fattree:4 --failures 3 ------------------------

constexpr int kSweepFailures = 3;
constexpr std::size_t kSweepSampleStride = 512;
constexpr std::size_t kSweepMaxSamples = 16;

class SweepK4F3 final : public SerialWorkload {
 public:
  explicit SweepK4F3(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "sweep_k4f3"; }
  Segment segment() const override { return kSweep; }

  // What analyze::sweep_failures does before its loop, for the CLI's
  // default mechanism (PFC).
  void setup(Spans* spans) override {
    ThreadLog* log = spans != nullptr ? spans->thread_log() : nullptr;
    if (log != nullptr) log->begin_op(kSweep, 0);
    scenario_ = std::make_unique<analyze::BuiltScenario>();
    std::string err;
    if (!analyze::build_scenario("fattree:4", scenario_.get(), &err))
      throw std::runtime_error(err);
    in_ = analyze::Input{};
    in_.topo = &scenario_->topo;
    in_.routing = &scenario_->routing;
    in_.cfg = fig_config(runner::FcKind::kPfc);
    in_.flows = scenario_->flows;
    in_.scenario = scenario_->name;
    {
      Span s(log, "analyze.baseline");
      baseline_ = analyze::analyze(in_).verdict();
    }
    const topo::Topology& orig = scenario_->topo;
    candidates_.clear();
    for (const topo::LinkIndex l : orig.switch_links())
      if (orig.link(l).up) candidates_.push_back(l);
    combos_.clear();
    for (std::size_t size = 1; size <= kSweepFailures; ++size)
      append_combos(candidates_.size(), size);
    // Every seed keeps gfc-analyze's order, so the analyzer's caches reuse
    // what the CLI's do; a seed other than 0 starts the cycle at a combo it
    // draws. A shuffled order puts the sweep's p90 on the steep edge of its
    // heavy ops and makes it swing with the host's speed (README.md).
    order_.resize(combos_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    if (seed_ != 0) {
      sim::Rng rng(seed_);
      std::rotate(order_.begin(),
                  order_.begin() + static_cast<std::ptrdiff_t>(rng.pick_index(order_.size())),
                  order_.end());
    }
    scratch_ = std::make_unique<topo::Topology>(orig);
    analyze::Input combo_in = in_;
    combo_in.topo = scratch_.get();
    combo_in.routing = nullptr;
    // Warm-up: the single-link combos through a throwaway analyzer; the
    // timed ops start from a fresh one, as the CLI does.
    inc_ = std::make_unique<analyze::IncrementalAnalyzer>(combo_in);
    for (std::uint32_t c = 0; c < candidates_.size(); ++c)
      setup_warnings_ += verdict(c, nullptr).truncated;
    inc_ = std::make_unique<analyze::IncrementalAnalyzer>(combo_in);
    begin_run();
  }

  std::size_t traced_ops(double seconds) const override {
    return std::max<std::size_t>(200, static_cast<std::size_t>(75 * seconds));
  }

  void check(CheckLog* log) override {
    log->expect_warnings(setup_warnings_);
    setup_warnings_ = 0;
    std::vector<const Result*> first_seen(combos_.size(), nullptr);
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      const analyze::Verdict expected = r.cycles == 0 && !r.truncated
                                            ? analyze::Verdict::kDeadlockFree
                                            : analyze::Verdict::kAtRisk;
      if (r.verdict != expected) log->op_failed(name(), i, "verdict does not match its report");
      if (r.flips != (is_free(baseline_) && !is_free(r.verdict)))
        log->op_failed(name(), i, "flip flag does not match the verdicts");
      if (r.truncated) log->expect_warnings(1);
      const Result*& prev = first_seen[r.combo];
      if (prev == nullptr)
        prev = &r;
      else if (prev->verdict != r.verdict || prev->cycles != r.cycles ||
               prev->truncated != r.truncated || prev->disconnects != r.disconnects)
        log->op_failed(name(), i, "combo re-verdicted differently on a later pass");
    }
    for (const auto& [combo, json] : samples_) {
      topo::Topology t = scenario_->topo;
      for (const std::size_t pos : combos_[combo]) t.fail_link(candidates_[pos]);
      const topo::RoutingTable routing = topo::compute_shortest_paths(t);
      analyze::Input fresh = in_;
      fresh.topo = &t;
      fresh.routing = &routing;
      const analyze::Report full = analyze::analyze(fresh);
      if (full.truncated) log->expect_warnings(1);
      if (json_digest(full) != json)
        log->check_failed("sweep_k4f3: update() JSON differs from analyze() for combo " +
                          std::to_string(combo));
    }
    // One full pass visits every combo once; its counts do not depend on
    // the order, so every seed must give the same values.
    if (results_.size() < combos_.size()) return;
    Digest d;
    std::size_t flipped = 0, truncated = 0;
    for (std::size_t c = 0; c < combos_.size(); ++c) {
      const Result& r = *first_seen[c];
      flipped += r.flips;
      truncated += r.truncated;
      d.add(c);
      d.add(static_cast<std::uint64_t>(r.verdict));
      d.add(r.cycles);
      d.add(r.truncated);
      d.add(r.disconnects);
    }
    log->exact("sweep_k4f3.pass.combos", std::to_string(combos_.size()));
    log->exact("sweep_k4f3.pass.flipped", std::to_string(flipped));
    log->exact("sweep_k4f3.pass.truncated", std::to_string(truncated));
    log->exact("sweep_k4f3.pass.digest", d.hex());
  }

  void layer_metrics(const LayerTable& table, Metrics* out) const override {
    double update_ms = 0, fallback_ms = 0;
    std::size_t truncated = 0, flipped = 0;
    for (const Result& r : results_) {
      update_ms += r.update_ms;
      if (r.fallback) fallback_ms += r.update_ms;
      truncated += r.truncated;
      flipped += r.flips;
    }
    const analyze::IncrementalAnalyzer::Stats& s = inc_->stats();
    const double dst_all = static_cast<double>(s.dst_reused + s.dst_recomputed);
    const double scc_all = static_cast<double>(s.scc_reused + s.scc_enumerations);
    out->push_back({"analyze.update_ms", span_mean(table, kSweep, "analyze.update"), "ms"});
    out->push_back({"analyze.fallback_share", ratio(fallback_ms, update_ms), "ratio"});
    out->push_back({"analyze.dst_reuse_ratio",
                    ratio(static_cast<double>(s.dst_reused), dst_all), "ratio"});
    out->push_back({"analyze.scc_reuse_ratio",
                    ratio(static_cast<double>(s.scc_reused), scc_all), "ratio"});
    out->push_back({"analyze.baseline_ms", span_mean(table, kSweep, "analyze.baseline"), "ms"});
    out->push_back({"analyze.full_fallbacks", static_cast<double>(s.full_fallbacks), "count"});
    out->push_back({"analyze.truncated_combos", static_cast<double>(truncated), "count"});
    out->push_back({"analyze.flipped_combos", static_cast<double>(flipped), "count"});
    std::printf("  base: %zu of %zu combos, %zu updates; destination columns reused "
                "%zu of %.0f; SCC cycle sets reused %zu of %.0f; fallback combos "
                "took %.1f of %.1f update ms\n",
                results_.size(), combos_.size(), s.updates, s.dst_reused, dst_all,
                s.scc_reused, scc_all, fallback_ms, update_ms);
  }

 protected:
  void begin_run() override {
    results_.clear();
    samples_.clear();
    sampled_truncated_ = false;
  }

  void op(std::size_t i, ThreadLog* log) override {
    results_.push_back(verdict(order_[i % order_.size()], log));
  }

  // Keeps the JSON digest of a few reports (and of the first truncated
  // one) for the byte-identity check against a from-scratch analyze().
  void after_op() override {
    const Result& r = results_.back();
    const bool take = (results_.size() - 1) % kSweepSampleStride == 0 ||
                      (r.truncated && !sampled_truncated_);
    if (!take || samples_.size() >= kSweepMaxSamples) return;
    samples_.push_back({r.combo, json_digest(inc_->report())});
    sampled_truncated_ |= r.truncated;
  }

 private:
  struct Result {
    std::uint32_t combo = 0;
    analyze::Verdict verdict = analyze::Verdict::kDeadlockFree;
    std::size_t cycles = 0;
    bool truncated = false;
    bool disconnects = false;
    bool flips = false;
    bool fallback = false;
    double update_ms = 0;
  };

  // The loop body of analyze::sweep_failures for combo `c`.
  Result verdict(std::uint32_t c, ThreadLog* log) {
    Result r;
    r.combo = c;
    const std::vector<std::size_t>& combo = combos_[c];
    for (const std::size_t pos : combo) scratch_->fail_link(candidates_[pos]);
    topo::RoutingTable routing;
    {
      Span s(log, "topo.routing");
      routing = topo::compute_shortest_paths(*scratch_);
    }
    const std::size_t fallbacks = inc_->stats().full_fallbacks;
    const Clock::time_point t0 = Clock::now();
    const analyze::Report* rep = nullptr;
    {
      Span s(log, "analyze.update");
      rep = &inc_->update(routing);
    }
    r.update_ms = ms_between(t0, Clock::now());
    r.fallback = inc_->stats().full_fallbacks != fallbacks;
    r.verdict = rep->verdict();
    r.cycles = rep->cycles.size();
    r.truncated = rep->truncated;
    r.disconnects = std::any_of(
        rep->lints.begin(), rep->lints.end(),
        [](const analyze::LintFinding& f) { return f.kind == "unroutable"; });
    r.flips = is_free(baseline_) && !is_free(r.verdict);
    for (const std::size_t pos : combo) scratch_->restore_link(candidates_[pos]);
    return r;
  }

  static bool is_free(analyze::Verdict v) { return v == analyze::Verdict::kDeadlockFree; }

  /// All size-`size` combinations of candidate positions, lexicographic.
  void append_combos(std::size_t n, std::size_t size) {
    if (size > n) return;
    std::vector<std::size_t> combo(size);
    std::iota(combo.begin(), combo.end(), 0);
    while (true) {
      combos_.push_back(combo);
      std::size_t i = size;
      while (i > 0 && combo[i - 1] == n - size + (i - 1)) --i;
      if (i == 0) return;
      ++combo[i - 1];
      for (std::size_t j = i; j < size; ++j) combo[j] = combo[j - 1] + 1;
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<analyze::BuiltScenario> scenario_;
  analyze::Input in_;
  analyze::Verdict baseline_ = analyze::Verdict::kDeadlockFree;
  std::vector<topo::LinkIndex> candidates_;
  std::vector<std::vector<std::size_t>> combos_;
  std::vector<std::uint32_t> order_;
  std::unique_ptr<topo::Topology> scratch_;
  std::unique_ptr<analyze::IncrementalAnalyzer> inc_;
  std::vector<Result> results_;
  std::vector<std::pair<std::uint32_t, std::string>> samples_;  // JSON digests
  bool sampled_truncated_ = false;
  /// Truncation warnings the warm-ups printed, not yet checked.
  std::uint64_t setup_warnings_ = 0;
};

// --- closed-loop trials shared by sim_k4 and campaign_k8 -------------------

struct Mech {
  runner::FcKind kind;
  const char* key;
  const char* run_span;
};
constexpr Mech kMechs[] = {
    {runner::FcKind::kPfc, "pfc", "runner.run_closed_loop[pfc]"},
    {runner::FcKind::kCbfc, "cbfc", "runner.run_closed_loop[cbfc]"},
    {runner::FcKind::kGfcBuffer, "gfc_buffer", "runner.run_closed_loop[gfc_buffer]"},
    {runner::FcKind::kGfcTime, "gfc_time", "runner.run_closed_loop[gfc_time]"},
};
constexpr int kNumMechs = 4;
constexpr int kPfc = 0;
constexpr int kGfcBuffer = 2;

struct TrialOutcome {
  int mech = 0;
  std::uint64_t topo_seed = 0;
  bool cbd_prone = false;
  bool deadlocked = false;
  std::uint64_t violations = 0;
  std::uint64_t flows = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  std::uint64_t ctrl = 0;
};

void collect(runner::FatTreeScenario& s, const runner::RunSummary& r,
             TrialOutcome* out) {
  net::Network& net = s.fabric->net();
  out->cbd_prone = s.cbd_prone;
  out->deadlocked = r.deadlocked;
  out->violations = r.lossless_violations;
  out->flows = r.flows_completed;
  out->events = net.executed_events();
  out->packets = net.packets_created();
  out->delivered = net.counters().data_packets_delivered;
  out->ctrl = net.counters().control_frames_sent;
}

/// One trial: make_random_fattree, run_closed_loop, scenario destruction.
/// Traced, make_random_fattree is issued call by call.
TrialOutcome run_trial(int mech, int k, std::uint64_t topo_seed,
                       const runner::RunOptions& opts, ThreadLog* log) {
  const runner::ScenarioConfig cfg = fig_config(kMechs[mech].kind);
  TrialOutcome out;
  out.mech = mech;
  out.topo_seed = topo_seed;
  if (log == nullptr) {
    runner::FatTreeScenario s =
        runner::make_random_fattree(cfg, k, kFailProb, topo_seed);
    const runner::RunSummary r = runner::run_closed_loop(s, opts);
    collect(s, r, &out);
    return out;
  }
  auto s = std::make_unique<runner::FatTreeScenario>();
  {
    Span setup(log, "runner.make_random_fattree");
    {
      Span sp(log, "topo.fattree");
      s->info = topo::build_fattree(s->topo, k);
      sim::Rng rng(topo_seed);
      s->failed_links = topo::random_failures(s->topo, rng, kFailProb);
    }
    {
      Span sp(log, "topo.routing");
      s->routing = topo::compute_shortest_paths(s->topo);
    }
    {
      Span sp(log, "topo.cbd_prone");
      s->cbd_prone = topo::cbd_prone(s->topo, s->routing);
    }
    {
      Span sp(log, "runner.fabric");
      s->fabric = std::make_unique<runner::Fabric>(s->topo, cfg);
      s->fabric->install_routing(s->topo, s->routing);
    }
  }
  runner::RunSummary r;
  {
    Span sp(log, kMechs[mech].run_span);
    r = runner::run_closed_loop(*s, opts);
  }
  collect(*s, r, &out);
  {
    Span sp(log, "runner.teardown");
    s.reset();
  }
  return out;
}

/// Zero lossless violations, no deadlock on a CBD-free fabric, and
/// completed flows.
std::string check_trial(const TrialOutcome& o) {
  if (o.cbd_prone) return "fabric from the CBD-free scan is CBD-prone";
  if (o.violations != 0) return "lossless violations";
  if (o.deadlocked) return "deadlock on a CBD-free fabric";
  if (o.flows == 0) return "no flow completed";
  return "";
}

/// Exact-repeat values of the first `n` trials.
void record_trials(const std::string& key, const std::vector<TrialOutcome>& trials,
                   CheckLog* log) {
  Digest d;
  std::uint64_t events = 0, packets = 0, flows = 0;
  for (const TrialOutcome& o : trials) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(o.mech), o.topo_seed, o.events, o.packets,
          o.flows, o.delivered, o.ctrl, static_cast<std::uint64_t>(o.deadlocked)})
      d.add(v);
    events += o.events;
    packets += o.packets;
    flows += o.flows;
  }
  log->exact(key + ".events", std::to_string(events));
  log->exact(key + ".packets", std::to_string(packets));
  log->exact(key + ".flows", std::to_string(flows));
  log->exact(key + ".digest", d.hex());
}

/// First `want` topology seeds from `first` on whose random k-ary fat-tree
/// is CBD-free: fig16_17_overall's part-(a) scan.
std::vector<std::uint64_t> scan_cbd_free(int k, std::uint64_t first,
                                         std::size_t want) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t seed = first; out.size() < want; ++seed) {
    topo::Topology t;
    topo::build_fattree(t, k);
    sim::Rng rng(seed);
    topo::random_failures(t, rng, kFailProb);
    if (!topo::cbd_prone(t, topo::compute_shortest_paths(t))) out.push_back(seed);
  }
  return out;
}

constexpr std::size_t kTrialExactOps = 32;

// --- sim_k4: Fig 16(a) trials ----------------------------------------------

constexpr std::size_t kSimFreeSeeds = 64;

class SimK4 final : public SerialWorkload {
 public:
  explicit SimK4(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "sim_k4"; }
  Segment segment() const override { return kSim; }

  // The warm-up is op 0 cut to 1 ms of simulated time: it runs every code
  // path an op does, while set-up stays mostly the scan.
  void setup(Spans*) override {
    free_ = scan_cbd_free(4, seed_ + 1, kSimFreeSeeds);
    runner::RunOptions opts = trial_options(0);
    opts.duration = sim::ms(1);
    run_trial(kPfc, 4, topo_seed(0), opts, nullptr);
    begin_run();
  }

  std::size_t traced_ops(double seconds) const override {
    return kNumMechs * std::max<std::size_t>(2, static_cast<std::size_t>(seconds / 4));
  }

  void check(CheckLog* log) override {
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const std::string why = check_trial(results_[i]);
      if (!why.empty()) log->op_failed(name(), i, why);
    }
    const std::size_t n = std::min(results_.size(), kTrialExactOps);
    if (n == 0) return;
    record_trials("sim_k4.seed" + std::to_string(seed_) + ".ops" + op_range(0, n),
                  {results_.begin(), results_.begin() + static_cast<std::ptrdiff_t>(n)},
                  log);
  }

  void layer_metrics(const LayerTable& table, Metrics* out) const override {
    double run_ms = 0, calls = 0;
    for (const Mech& m : kMechs) {
      const auto it = table.find({kSim, m.run_span});
      if (it == table.end()) continue;
      run_ms += it->second.total_ms;
      calls += static_cast<double>(it->second.calls);
    }
    double events = 0, packets = 0, delivered = 0, ctrl = 0, flows = 0;
    for (const TrialOutcome& o : results_) {
      events += static_cast<double>(o.events);
      packets += static_cast<double>(o.packets);
      delivered += static_cast<double>(o.delivered);
      ctrl += static_cast<double>(o.ctrl);
      flows += static_cast<double>(o.flows);
    }
    const double n = static_cast<double>(results_.size());
    out->push_back({"runner.run_ms", ratio(run_ms, calls), "ms"});
    for (const Mech& m : kMechs)
      out->push_back({std::string("runner.run_ms.") + m.key,
                      span_mean(table, kSim, m.run_span), "ms"});
    out->push_back({"sim.events", ratio(events, n), "count"});
    out->push_back({"sim.ns_per_event", ratio(run_ms * 1e6, events), "ns"});
    out->push_back({"net.packets_created", ratio(packets, n), "count"});
    out->push_back({"net.data_packets_delivered", ratio(delivered, n), "count"});
    out->push_back({"net.control_frames_sent", ratio(ctrl, n), "count"});
    out->push_back({"flowctl.ctrl_per_data", ratio(ctrl, delivered), "ratio"});
    out->push_back({"workload.flows_completed", ratio(flows, n), "count"});
  }

 protected:
  void begin_run() override { results_.clear(); }

  // One fig16_17_overall part-(a) trial.
  void op(std::size_t i, ThreadLog* log) override {
    results_.push_back(run_trial(static_cast<int>(i % kNumMechs), 4, topo_seed(i),
                                 trial_options(i), log));
  }

 private:
  std::uint64_t topo_seed(std::size_t i) const {
    return free_[(i / kNumMechs) % free_.size()];
  }
  runner::RunOptions trial_options(std::size_t i) const {
    runner::RunOptions opts;
    opts.duration = sim::ms(12);
    opts.workload_seed = 1000 + topo_seed(i) + seed_;
    return opts;
  }

  std::uint64_t seed_;
  std::vector<std::uint64_t> free_;
  std::vector<TrialOutcome> results_;
};

// --- campaign_k8: k=8 trials through the --jobs worker pool ----------------

constexpr std::size_t kCampaignFreeSeeds = 16;
/// Offsets workload_seed per round over the CBD-free seeds, so no trial
/// of a run repeats an earlier one.
constexpr std::uint64_t kCampaignRoundSeedStride = 1'000'003;
constexpr int kCampaignJobs = 2;
/// Trial slots per second of a timed run: far more than two workers can
/// finish, so the deadline, not the slot count, ends the run.
constexpr double kCampaignSlotsPerSecond = 200;

class CampaignK8 final : public Workload {
 public:
  explicit CampaignK8(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "campaign_k8"; }
  Segment segment() const override { return kCampaign; }

  void setup(Spans*) override {
    free_ = scan_cbd_free(8, seed_ + 1, kCampaignFreeSeeds);
    slots_.clear();
    trial(0, nullptr);
  }

  std::size_t traced_ops(double seconds) const override {
    return kCampaignJobs * std::max<std::size_t>(2, static_cast<std::size_t>(seconds / 2));
  }

  // One exp::Campaign of trial slots on kCampaignJobs workers, no journal.
  // A slot that a worker picks up after the deadline returns at once and
  // is not counted.
  LoopStats run(double seconds, std::size_t ops, Spans* spans) override {
    const std::size_t n =
        ops > 0 ? ops
                : std::max<std::size_t>(
                      64, static_cast<std::size_t>(std::ceil(seconds * kCampaignSlotsPerSecond)));
    slots_.assign(n, Slot{});
    exp::Campaign campaign;
    campaign.name = "perfbench_campaign_k8";
    campaign.seed = seed_;
    for (std::size_t j = 0; j < n; ++j)
      campaign.add("trial" + std::to_string(j), {}, [this, j, spans] {
        run_slot(j, spans);
        return exp::TrialResult{};
      });
    exp::PoolOptions pool;
    pool.jobs = kCampaignJobs;
    const Clock::time_point start = Clock::now();
    deadline_ = ops > 0 ? Clock::time_point::max()
                        : start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    const exp::CampaignResult result = exp::run_campaign(campaign, pool);

    LoopStats st;
    Clock::time_point end = start;
    double busy_ms = 0;
    std::vector<std::pair<std::thread::id, Clock::time_point>> last_end;
    for (std::size_t j = 0; j < n; ++j) {
      const Slot& s = slots_[j];
      if (!s.started) continue;
      ++st.attempted;
      if (result.trials[j].failed || !s.done) {
        ++st.failed;
        std::fprintf(stderr, "%s op %zu failed: %s\n", name(), j,
                     result.trials[j].error.c_str());
        continue;
      }
      st.op_ms.push_back(ms_between(s.t0, s.t1));
      busy_ms += ms_between(s.t0, s.t1);
      end = std::max(end, s.t1);
      auto it = std::find_if(last_end.begin(), last_end.end(),
                             [&](const auto& p) { return p.first == s.worker; });
      if (it == last_end.end())
        last_end.push_back({s.worker, s.t1});
      else
        it->second = std::max(it->second, s.t1);
    }
    st.wall_s = ms_between(start, end) / 1e3;
    busy_share_ = ratio(busy_ms, kCampaignJobs * st.wall_s * 1e3);
    tail_idle_ms_ = 0;
    if (last_end.size() > 1) {
      const auto [lo, hi] = std::minmax_element(
          last_end.begin(), last_end.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      tail_idle_ms_ = ms_between(lo->second, hi->second);
    }
    return st;
  }

  void check(CheckLog* log) override {
    std::vector<TrialOutcome> done;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (!slots_[j].done) continue;
      const std::string why = check_trial(slots_[j].outcome);
      if (!why.empty()) log->op_failed(name(), j, why);
      if (done.size() == j && done.size() < kTrialExactOps)
        done.push_back(slots_[j].outcome);
    }
    if (done.empty()) return;
    record_trials("campaign_k8.seed" + std::to_string(seed_) + ".ops" +
                      op_range(0, done.size()),
                  done, log);
  }

  void layer_metrics(const LayerTable& table, Metrics* out) const override {
    out->push_back({"topo.cbd_prone_ms", span_mean(table, kCampaign, "topo.cbd_prone"), "ms"});
    out->push_back({"runner.setup_ms",
                    span_mean(table, kCampaign, "runner.make_random_fattree"), "ms"});
    out->push_back({"runner.fabric_ms", span_mean(table, kCampaign, "runner.fabric"), "ms"});
    out->push_back({"runner.teardown_ms", span_mean(table, kCampaign, "runner.teardown"), "ms"});
    out->push_back({"exp.busy_share", busy_share_, "ratio"});
    out->push_back({"exp.tail_idle_ms", tail_idle_ms_, "ms"});
  }

 private:
  struct Slot {
    bool started = false;
    bool done = false;
    std::thread::id worker;
    Clock::time_point t0, t1;
    TrialOutcome outcome;
  };

  // Trial j: GFC-buffer on even j, PFC on odd j, over the CBD-free seeds.
  TrialOutcome trial(std::size_t j, ThreadLog* log) const {
    const std::size_t round = j / (2 * free_.size());
    const std::uint64_t topo_seed = free_[(j / 2) % free_.size()];
    runner::RunOptions opts;
    opts.duration = sim::ms(1);
    opts.warmup = sim::us(200);
    opts.workload_seed = 1000 + topo_seed + seed_ + round * kCampaignRoundSeedStride;
    return run_trial(j % 2 == 0 ? kGfcBuffer : kPfc, 8, topo_seed, opts, log);
  }

  void run_slot(std::size_t j, Spans* spans) {
    if (Clock::now() >= deadline_) return;
    Slot& s = slots_[j];
    s.started = true;
    s.worker = std::this_thread::get_id();
    ThreadLog* log = spans != nullptr ? spans->thread_log() : nullptr;
    if (log != nullptr) log->begin_op(kCampaign, j);
    s.t0 = Clock::now();
    {
      Span root(log, "op");
      s.outcome = trial(j, log);
    }
    s.t1 = Clock::now();
    s.done = true;
  }

  std::uint64_t seed_;
  std::vector<std::uint64_t> free_;
  std::vector<Slot> slots_;
  Clock::time_point deadline_ = Clock::time_point::max();
  double busy_share_ = 0;
  double tail_idle_ms_ = 0;
};

}  // namespace

void CheckLog::op_failed(const std::string& workload, std::size_t op,
                         const std::string& why) {
  ++failed_ops_;
  std::printf("CHECK FAILED: %s op %zu: %s\n", workload.c_str(), op, why.c_str());
}

void CheckLog::check_failed(const std::string& why) {
  ++failed_checks_;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

void CheckLog::exact(const std::string& key, const std::string& value) {
  for (const auto& [k, v] : exact_) {
    if (k != key) continue;
    if (v != value) check_failed("reruns disagree on " + key + ": " + v + " vs " + value);
    return;
  }
  exact_.push_back({key, value});
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"screen_k8", "sweep_k4f3",
                                                 "sim_k4", "campaign_k8"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "screen_k8") return std::make_unique<ScreenK8>(seed);
  if (name == "sweep_k4f3") return std::make_unique<SweepK4F3>(seed);
  if (name == "sim_k4") return std::make_unique<SimK4>(seed);
  if (name == "campaign_k8") return std::make_unique<CampaignK8>(seed);
  return nullptr;
}

}  // namespace perfbench
