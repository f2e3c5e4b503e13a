// Tests for the static analysis pass (src/analyze/): golden JSON reports,
// structural properties of the enumerated cycles (simple, chained, closed,
// edges real), canonical-witness determinism, verdict semantics, the
// --analyze pre-flight hook, and the load-bearing cross-validation: the
// static verdict must agree with what the simulator actually does.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/repair.hpp"
#include "analyze/scenario.hpp"
#include "analyze/sweep.hpp"
#include "runner/scenarios.hpp"
#include "sim/random.hpp"
#include "stats/deadlock.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::analyze {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The exact configuration gfc-analyze builds for --fc KIND --buffer B:
/// everything derived from the buffer via the paper's bounds.
runner::ScenarioConfig cli_config(runner::FcKind kind, std::int64_t buffer) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  cfg.fc = runner::FcSetup::derive(kind, buffer, cfg.link.rate, cfg.tau(),
                                   cfg.link.mtu);
  return cfg;
}

Report analyze_spec(const std::string& spec, const runner::ScenarioConfig& cfg,
                    std::size_t max_cycles = 4096) {
  BuiltScenario sc;
  std::string err;
  EXPECT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cfg;
  in.flows = sc.flows;
  in.max_cycles = max_cycles;
  in.scenario = sc.name;
  return analyze(in);
}

// --- Golden reports: Report::json() is a stable, versioned artifact. ---
// Regenerate with, e.g.:
//   build/tools/gfc-analyze ring:3:2 --fc pfc --buffer 1000000
//     --json tests/golden/ring3_pfc.json

TEST(AnalyzeGolden, RingPfc) {
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kPfc, 1'000'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/ring3_pfc.json"));
}

TEST(AnalyzeGolden, FatTreeSeed22GfcBuffer) {
  const Report r = analyze_spec(
      "fattree:4:seed=22", cli_config(runner::FcKind::kGfcBuffer, 300'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR
                      "/golden/fattree4_seed22_gfc_buffer.json"));
}

TEST(AnalyzeGolden, RoutingLoopPfc) {
  const Report r =
      analyze_spec("loop2", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/loop2_pfc.json"));
}

TEST(AnalyzeLint, RoutingLoopNamesEachSwitchOnce) {
  // loop2's table toward H1 bounces S0 -> S1 -> S0: the lint names each
  // switch of the loop once and closes on the first.
  const Report r =
      analyze_spec("loop2", cli_config(runner::FcKind::kPfc, 300'000));
  std::vector<std::string> loops;
  for (const LintFinding& lint : r.lints)
    if (lint.kind == "routing_loop") loops.push_back(lint.message);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0], "routing toward H1 loops: S0 -> S1 -> S0");
}

// Regenerate with:
//   build/tools/gfc-analyze ring:3:2 --fc pfc --buffer 1000000 --failures 1
//     --suggest-repairs --json tests/golden/ring3_pfc_failures.json
TEST(AnalyzeGolden, RingPfcFailureSweepWithRepairs) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 1'000'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  Report r = sweep_failures(in, 1);
  r.repairs = suggest_repairs(in, r);
  EXPECT_EQ(r.json(),
            read_file(GFC_TEST_DATA_DIR "/golden/ring3_pfc_failures.json"));
}

// A fat-tree sweep in which 8 of the 528 combos truncate at 4096 cycles.
// Regenerate with:
//   build/tools/gfc-analyze fattree:4 --fc pfc --failures 2
//     --json tests/golden/fattree4_pfc_failures2.json
TEST(AnalyzeGolden, FatTreeFailureSweepPfc) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("fattree:4", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  EXPECT_EQ(sweep_failures(in, 2).json(),
            read_file(GFC_TEST_DATA_DIR "/golden/fattree4_pfc_failures2.json"));
}

// A truncated report: the first 16 cycles in enumeration order, listed in
// canonical order. Regenerate with:
//   build/tools/gfc-analyze fattree:4:seed=12 --fc pfc --max-cycles 16
//     --json tests/golden/fattree4_seed12_pfc_max16.json
TEST(AnalyzeGolden, FatTreeSeed12TruncatedPfc) {
  const Report r = analyze_spec(
      "fattree:4:seed=12", cli_config(runner::FcKind::kPfc, 300'000), 16);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.json(), read_file(GFC_TEST_DATA_DIR
                                "/golden/fattree4_seed12_pfc_max16.json"));
}

// --- Structural properties of the enumeration. ---

/// Every reported cycle must be an elementary cycle of the real
/// buffer-dependency graph: consecutive links chained head-to-tail, the
/// last link closing back on the first, no vertex repeated, and every
/// dependency edge present in the graph built from the same routing.
void check_cycles_well_formed(const std::string& spec) {
  SCOPED_TRACE(spec);
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  const Report r = analyze(in);
  EXPECT_FALSE(r.truncated);

  topo::BufferDependencyGraph g(sc.topo);
  g.add_routing_closure(sc.routing);
  const auto& verts = g.links();
  auto vertex_of = [&](const topo::DirectedLink& l) {
    const auto it = std::find(verts.begin(), verts.end(), l);
    return it == verts.end() ? -1 : static_cast<int>(it - verts.begin());
  };

  std::set<std::vector<topo::DirectedLink>> seen;
  for (const CycleInfo& c : r.cycles) {
    ASSERT_GE(c.links.size(), 2u);
    EXPECT_EQ(c.links.size(), c.link_names.size());
    // Simple: no directed link appears twice.
    std::set<topo::DirectedLink> uniq(c.links.begin(), c.links.end());
    EXPECT_EQ(uniq.size(), c.links.size());
    // No cycle reported twice (canonical form makes this well-defined).
    EXPECT_TRUE(seen.insert(c.links).second);
    // Canonical: rotated so the smallest link leads.
    EXPECT_EQ(c.links.front(),
              *std::min_element(c.links.begin(), c.links.end()));
    for (std::size_t i = 0; i < c.links.size(); ++i) {
      const topo::DirectedLink& cur = c.links[i];
      const topo::DirectedLink& nxt = c.links[(i + 1) % c.links.size()];
      // Chained and closed: each hop ends where the next begins.
      EXPECT_EQ(cur.second, nxt.first);
      // Every dependency edge exists in the graph.
      const int u = vertex_of(cur);
      const int v = vertex_of(nxt);
      ASSERT_GE(u, 0);
      ASSERT_GE(v, 0);
      const auto& out = g.adjacency()[static_cast<std::size_t>(u)];
      EXPECT_NE(std::find(out.begin(), out.end(), v), out.end())
          << c.link_names[i] << " -> " << c.link_names[(i + 1) % c.links.size()];
    }
  }
}

TEST(AnalyzeCycles, WellFormedAcrossScenarios) {
  check_cycles_well_formed("ring:3:2");
  check_cycles_well_formed("ring:6:3");
  check_cycles_well_formed("loop2");
  check_cycles_well_formed("fattree:4:seed=22");
  check_cycles_well_formed("fattree:4:seed=26");
}

TEST(AnalyzeCycles, TruncationIsReportedNotSilent) {
  // seed=12 has thousands of elementary cycles; a tiny cap must be
  // reported as truncation, and a truncated report is never "cbd_free".
  const Report r = analyze_spec(
      "fattree:4:seed=12", cli_config(runner::FcKind::kPfc, 300'000), 16);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cycles.size(), 16u);
  EXPECT_FALSE(r.cbd_free());
  // The verdict from a prefix of the cycle set proves nothing about the
  // cycles it never saw: truncation always degrades to at_risk, even for
  // mechanisms whose bounds would otherwise argue "safe".
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
  const Report g = analyze_spec(
      "fattree:4:seed=12", cli_config(runner::FcKind::kGfcBuffer, 300'000),
      16);
  EXPECT_TRUE(g.truncated);
  EXPECT_TRUE(g.bounds_ok());
  EXPECT_EQ(g.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeCycles, WitnessIsCanonicalAndDeterministic) {
  topo::Topology t;
  topo::build_ring(t, 5);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const topo::CbdResult a = g.find_cycle();
  const topo::CbdResult b = g.find_cycle();
  ASSERT_TRUE(a.has_cbd);
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.cycle.front(),
            *std::min_element(a.cycle.begin(), a.cycle.end()));
}

TEST(AnalyzeCycles, JsonByteDeterministic) {
  const auto cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  EXPECT_EQ(analyze_spec("fattree:4:seed=22", cfg).json(),
            analyze_spec("fattree:4:seed=22", cfg).json());
}

// --- Verdict semantics. ---

TEST(AnalyzeVerdict, RingUnderPfcIsAtRisk) {
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeVerdict, RingWithoutFlowControlIsSafe) {
  // No flow control: packets drop instead of waiting, so a CBD alone
  // cannot deadlock (no hold-and-wait half of the circular wait).
  const Report r =
      analyze_spec("ring:3:2", cli_config(runner::FcKind::kNone, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kSafe);
}

TEST(AnalyzeVerdict, RingUnderDerivedGfcBufferIsSafe) {
  const Report r = analyze_spec(
      "ring:3:2", cli_config(runner::FcKind::kGfcBuffer, 300'000));
  EXPECT_FALSE(r.cbd_free());
  EXPECT_TRUE(r.bounds_ok());
  EXPECT_EQ(r.verdict(), Verdict::kSafe);
}

TEST(AnalyzeVerdict, ViolatedGfcBoundIsAtRisk) {
  // B_1 = B_m leaves no 2*C*tau reserve: the Sec 4.2 bound fails and the
  // mechanism can hold-and-wait after all.
  auto cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  cfg.fc.b1 = cfg.fc.bm;
  const Report r = analyze_spec("ring:3:2", cfg);
  EXPECT_FALSE(r.bounds_ok());
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);
}

TEST(AnalyzeVerdict, IncastIsDeadlockFree) {
  const Report r =
      analyze_spec("incast:4", cli_config(runner::FcKind::kPfc, 300'000));
  EXPECT_TRUE(r.cbd_free());
  EXPECT_EQ(r.verdict(), Verdict::kDeadlockFree);
  EXPECT_EQ(r.cycles.size(), 0u);
}

// --- The --analyze pre-flight hook on the simulation path. ---

TEST(AnalyzePreflight, FailModeThrowsBeforeAnyEvent) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.preflight = PreflightMode::kFail;
  EXPECT_THROW(runner::make_ring(cfg), PreflightError);
}

TEST(AnalyzePreflight, WarnModeOnlyReports) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.preflight = PreflightMode::kWarn;
  EXPECT_NO_THROW(runner::make_ring(cfg));
  // A safe configuration passes even under kFail.
  runner::ScenarioConfig safe =
      cli_config(runner::FcKind::kGfcBuffer, 300'000);
  safe.preflight = PreflightMode::kFail;
  EXPECT_NO_THROW(runner::make_ring(safe));
}

// --- Cross-validation: static verdicts against the real simulator. ---

/// Rebuild the Table 1 sample for (k=4, seed): the same salted failure
/// stream the analyzer's fattree:4:seed=S spec uses.
std::vector<topo::LinkIndex> table1_failures(std::uint64_t seed) {
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(seed * 7919 + 4);
  return topo::random_failures(t, rng, 0.05);
}

TEST(AnalyzeXval, CbdFreeFabricNeverDeadlocksUnderPfc) {
  // Statically CBD-free (seed 1, verified by the analyzer below) implies
  // even PFC cannot deadlock at runtime: circular wait is impossible.
  const Report r = analyze_spec(
      "fattree:4:seed=1", cli_config(runner::FcKind::kPfc, 300'000));
  ASSERT_TRUE(r.cbd_free());

  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.seed = 1;
  auto sc = runner::make_fattree(cfg, 4, table1_failures(1));
  runner::RunOptions opts;
  opts.duration = sim::ms(6);
  opts.workload_seed = 1001;
  const runner::RunSummary s = run_closed_loop(sc, opts);
  EXPECT_FALSE(s.deadlocked);
}

TEST(AnalyzeXval, ActivatedCycleDeadlocksUnderPfcNotUnderGfc) {
  // seed 22's witness cycle is covered by the stress flows (the analyzer
  // marks it ACTIVATED): under PFC those flows must actually deadlock,
  // and under the derived buffer-GFC bound they must not.
  const Report r = analyze_spec(
      "fattree:4:seed=22", cli_config(runner::FcKind::kPfc, 300'000));
  ASSERT_FALSE(r.cycles.empty());
  EXPECT_TRUE(r.cycles.front().activated);
  EXPECT_EQ(r.verdict(), Verdict::kAtRisk);

  // The same stress probe Table 1 runs, at both mechanisms.
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(22 * 7919 + 4);
  auto failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const auto cbd = g.find_cycle();
  ASSERT_TRUE(cbd.has_cbd);
  auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
  ASSERT_TRUE(stress.covered);

  for (const runner::FcKind kind :
       {runner::FcKind::kPfc, runner::FcKind::kGfcBuffer}) {
    runner::ScenarioConfig cfg = cli_config(kind, 300'000);
    cfg.seed = 1;
    auto sc = runner::make_fattree(cfg, 4, failed);
    net::Network& net = sc.fabric->net();
    for (const auto& f : stress.flows) {
      net::Flow& flow =
          net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
      flow.path_salt = f.salt;
    }
    stats::DeadlockOptions dl_opts;
    dl_opts.stop_on_detect = true;
    stats::DeadlockDetector det(net, dl_opts);
    net.run_until(sim::ms(8));
    if (kind == runner::FcKind::kPfc)
      EXPECT_TRUE(det.deadlocked()) << "activated CBD must bite under PFC";
    else
      EXPECT_FALSE(det.deadlocked()) << "GFC bound must prevent the stall";
  }
}

}  // namespace
}  // namespace gfc::analyze
