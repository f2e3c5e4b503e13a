// Mechanism-baselines subsystem (src/mech): registry round-trips, DCFIT
// detect-and-break on the Figure 1 ring (where plain PFC wedges forever),
// DCFIT false-positive discipline on cycle-free scenarios, and CBD-free
// up*/down* routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "mech/cbd_routing.hpp"
#include "mech/dcfit.hpp"
#include "mech/registry.hpp"
#include "runner/scenarios.hpp"
#include "stats/throughput.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::mech {
namespace {

/// The registered mechanism called `name`; nullptr when unknown.
const MechSpec* find_mechanism(std::string_view name) {
  for (const MechSpec& m : all_mechanisms())
    if (m.name == name) return &m;
  return nullptr;
}

runner::ScenarioConfig config_for(const MechSpec& spec,
                                  std::int64_t buffer = 300'000) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  const auto fc = setup_for(spec, buffer, cfg.link.rate, cfg.tau());
  EXPECT_TRUE(fc.has_value()) << spec.name;
  cfg.fc = *fc;
  return cfg;
}

// --- registry -------------------------------------------------------------

TEST(MechRegistry, EveryMechanismRoundTrips) {
  const auto& mechs = all_mechanisms();
  ASSERT_GE(mechs.size(), 10u);
  for (const MechSpec& spec : mechs) {
    SCOPED_TRACE(spec.name);
    // spec -> setup (derivable at the default 300 KB buffer)
    runner::ScenarioConfig probe;
    const auto fc = setup_for(spec, 300'000, probe.link.rate, probe.tau());
    ASSERT_TRUE(fc.has_value());
    EXPECT_EQ(fc->kind, spec.kind);
    EXPECT_EQ(fc->cbd_free_routing, spec.cbd_free_routing);
  }
}

TEST(MechRegistry, MatrixRowOrderIsStable) {
  // The benches key their JSON and reports on these exact names, in this
  // exact order; reordering breaks golden comparisons.
  const auto& mechs = all_mechanisms();
  ASSERT_EQ(mechs.size(), 10u);
  EXPECT_EQ(mechs.front().name, "PFC");
  EXPECT_EQ(mechs[4].name, "GFC-buffer");
  EXPECT_EQ(mechs[7].name, "DCFIT-drop");
  EXPECT_EQ(mechs[8].name, "DCFIT-bypass");
  EXPECT_EQ(mechs.back().name, "CBD-routing");
}

// --- DCFIT on the deadlocking ring ---------------------------------------

struct DcfitRingResult {
  bool deadlocked = false;
  double tail_gbps = 0.0;
  std::uint64_t violations = 0;
  DcfitTotals totals;
};

DcfitRingResult run_dcfit_ring(
    const char* mech_name, sim::TimePs duration = sim::ms(20),
    net::SwitchArch arch = net::SwitchArch::kOutputQueuedFifo,
    int n_switches = 3, int hops = 2) {
  const MechSpec* spec = find_mechanism(mech_name);
  EXPECT_NE(spec, nullptr);
  runner::ScenarioConfig cfg = config_for(*spec);
  cfg.arch = arch;
  runner::RingScenario s = runner::make_ring(cfg, n_switches, hops);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockDetector det(net);
  net.run_until(duration);
  DcfitRingResult out;
  out.deadlocked = det.deadlocked();
  out.tail_gbps = tp.average_gbps(0, duration * 3 / 4, duration) / 3.0;
  out.violations = net.counters().lossless_violations;
  out.totals = collect_dcfit(net);
  return out;
}

void expect_drop_one_breaks_deadlock(const DcfitRingResult& r,
                                     double min_tail_gbps) {
  // The cycle forms (same PFC thresholds that wedge plain PFC), the
  // trigger comes home within microseconds, and each drop releases it.
  // With *persistent* line-rate flows the cycle immediately re-forms, so
  // detection repeats — and the ground-truth scanner, sampling at 1 ms,
  // still sees a closed wait cycle at scan instants. The claim is not
  // "never wedged": it is that traffic keeps flowing where plain PFC
  // delivers exactly nothing after the wedge (tail < 0.2 Gb/s, see
  // integration_ring_test).
  EXPECT_GT(r.totals.detections, 1);  // break, re-form, break again
  EXPECT_GT(r.totals.packets_sacrificed, 0u);
  EXPECT_EQ(r.totals.bypasses, 0);
  EXPECT_GT(r.tail_gbps, min_tail_gbps);
  // Detection is a trigger round trip: microseconds, not the ground-truth
  // scanner's milliseconds.
  EXPECT_GT(r.totals.first_detection_latency, 0);
  EXPECT_LT(r.totals.first_detection_latency, sim::ms(1));
  // Drop-one sacrifices packets; losslessness is otherwise intact.
  EXPECT_EQ(r.violations, 0u);
}

TEST(DcfitRing, DropOneDetectsAndBreaksTheFigure1Deadlock) {
  expect_drop_one_breaks_deadlock(run_dcfit_ring("DCFIT-drop"), 0.5);
}

// Every switch architecture; with CIOQ and input queueing,
// drop_egress_head may take a wedged input-FIFO head. Fair arbitration
// keeps the symmetric 3-ring out of deadlock (bench/ablation_arbitration);
// 3-hop flows on a 4-ring wedge it under all three, and re-form the cycle
// right after each drop, so the tail only has to be nonzero.
class DcfitRingArch : public testing::TestWithParam<net::SwitchArch> {};
INSTANTIATE_TEST_SUITE_P(
    AllArchs, DcfitRingArch,
    testing::Values(net::SwitchArch::kOutputQueuedFifo,
                    net::SwitchArch::kCioqRoundRobin,
                    net::SwitchArch::kInputQueued),
    [](const auto& info) -> std::string {
      switch (info.param) {
        case net::SwitchArch::kOutputQueuedFifo: return "output_queued";
        case net::SwitchArch::kCioqRoundRobin: return "cioq";
        case net::SwitchArch::kInputQueued: return "input_queued";
      }
      return "unknown";
    });

TEST_P(DcfitRingArch, DropOneDetectsAndBreaksTheDeadlock) {
  expect_drop_one_breaks_deadlock(
      run_dcfit_ring("DCFIT-drop", sim::ms(20), GetParam(), 4, 3), 0.0);
}

TEST(DcfitRing, BypassDetectsAndKeepsTheRingMoving) {
  const DcfitRingResult r = run_dcfit_ring("DCFIT-bypass");
  EXPECT_GT(r.totals.detections, 1);
  EXPECT_GT(r.totals.bypasses, 0);
  EXPECT_EQ(r.totals.packets_sacrificed, 0u);
  EXPECT_GT(r.tail_gbps, 0.5);
}

// --- DCFIT false-positive discipline -------------------------------------

TEST(DcfitIncast, ZeroFalsePositivesAcrossSeeds) {
  // Incast has no cyclic buffer dependency: pauses fire (the receiver link
  // is 4x oversubscribed) but every chain heads at a host, so no trigger
  // can return home. Any detection or false positive here is a bug.
  const MechSpec* spec = find_mechanism("DCFIT-drop");
  ASSERT_NE(spec, nullptr);
  for (const int senders : {4, 8}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(testing::Message() << senders << " senders, seed " << seed);
      runner::ScenarioConfig cfg = config_for(*spec);
      cfg.seed = seed;
      runner::IncastScenario s = runner::make_incast(cfg, senders);
      net::Network& net = s.fabric->net();
      stats::DeadlockDetector det(net);
      net.run_until(sim::ms(10));
      const DcfitTotals t = collect_dcfit(net);
      EXPECT_EQ(t.detections, 0);
      EXPECT_EQ(t.false_positives, 0);
      EXPECT_EQ(t.packets_sacrificed, 0u);
      EXPECT_FALSE(det.deadlocked());
      EXPECT_EQ(net.counters().lossless_violations, 0u);
    }
  }
}

// --- CBD-free routing -----------------------------------------------------

TEST(CbdFreeRoutes, RingBecomesCbdFreeAndStaysConnected) {
  topo::Topology t;
  const topo::RingInfo info = topo::build_ring(t, 3);
  RoutingStats stats;
  const topo::RoutingTable routes = cbd_free_routes(t, &stats);
  EXPECT_TRUE(stats.cbd_free);
  EXPECT_FALSE(topo::cbd_prone(t, routes));
  EXPECT_EQ(stats.unroutable_pairs, 0u);
  EXPECT_EQ(stats.pairs, 6u);  // 3 hosts, ordered pairs
  for (const topo::NodeIndex a : t.hosts())
    for (const topo::NodeIndex b : t.hosts())
      if (a != b) {
        EXPECT_GE(routes.trace(a, b, 0).size(), 3u);
      }
  (void)info;
}

TEST(CbdFreeRoutes, FatTreesAreCbdFreeAcrossFailureSeeds) {
  for (const std::uint64_t seed : {3u, 5u, 11u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    topo::Topology t;
    topo::build_fattree(t, 4);
    sim::Rng rng(seed);
    topo::random_failures(t, rng, 0.05);
    RoutingStats stats;
    const topo::RoutingTable routes = cbd_free_routes(t, &stats);
    EXPECT_TRUE(stats.cbd_free);
    EXPECT_FALSE(topo::cbd_prone(t, routes));
    // random_failures keeps hosts connected, so up*/down* must still
    // serve every pair (possibly with stretch).
    EXPECT_EQ(stats.unroutable_pairs, 0u);
    EXPECT_GE(stats.avg_stretch, 1.0);
    EXPECT_GE(stats.load_imbalance, 1.0);
  }
}

TEST(CbdFreeRoutes, PristineFatTreeKeepsShortestPaths) {
  // A failure-free fat-tree is already hierarchical: up*/down* restriction
  // should cost nothing (stretch exactly 1 on every pair).
  topo::Topology t;
  topo::build_fattree(t, 4);
  RoutingStats stats;
  cbd_free_routes(t, &stats);
  EXPECT_TRUE(stats.cbd_free);
  EXPECT_EQ(stats.unroutable_pairs, 0u);
  EXPECT_DOUBLE_EQ(stats.max_stretch, 1.0);
}

TEST(CbdFreeRoutes, FatTreeRerouteKeepsTheUpDownPolicy) {
  // A mid-run reroute keeps the routing policy the scenario was built
  // with: flap a core link of an up*/down* fat-tree through reroute() and
  // compare every next-hop set with cbd_free_routes of the topology as it
  // then stands.
  const MechSpec* spec = find_mechanism("CBD-routing");
  ASSERT_NE(spec, nullptr);
  runner::FatTreeScenario s = runner::make_fattree(config_for(*spec), 4);
  ASSERT_TRUE(s.fabric->config().fc.cbd_free_routing);
  const topo::LinkIndex core_link =
      s.topo.neighbors(s.info.cores[0]).front().second;
  const auto expect_up_down = [&s](const char* when) {
    SCOPED_TRACE(when);
    const topo::RoutingTable want = cbd_free_routes(s.topo);
    int mismatches = 0;
    const auto n = static_cast<topo::NodeIndex>(s.topo.node_count());
    for (topo::NodeIndex at = 0; at < n; ++at)
      for (const topo::NodeIndex dst : s.topo.hosts()) {
        const auto got = s.routing.next_hops(at, dst);
        const auto exp = want.next_hops(at, dst);
        if (!std::equal(got.begin(), got.end(), exp.begin(), exp.end()))
          ++mismatches;
      }
    EXPECT_EQ(mismatches, 0);
    EXPECT_TRUE(s.route_stats.cbd_free);
  };
  s.topo.fail_link(core_link);
  s.reroute();
  expect_up_down("core link down");
  s.topo.restore_link(core_link);
  s.reroute();
  expect_up_down("core link restored");
}

TEST(CbdRoutingRing, PfcOnRestrictedRoutesNeverDeadlocks) {
  // The acceptance headline's avoidance row: same PFC that wedges on the
  // clockwise ring, but on up*/down* tables — no CBD, so no deadlock.
  const MechSpec* spec = find_mechanism("CBD-routing");
  ASSERT_NE(spec, nullptr);
  runner::ScenarioConfig cfg = config_for(*spec);
  runner::RingScenario s = runner::make_ring(cfg);
  EXPECT_TRUE(s.route_stats.cbd_free);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockDetector det(net);
  net.run_until(sim::ms(20));
  EXPECT_FALSE(det.deadlocked());
  EXPECT_EQ(net.counters().lossless_violations, 0u);
  EXPECT_GT(tp.average_gbps(0, sim::ms(15), sim::ms(20)) / 3.0, 1.0);
}

}  // namespace
}  // namespace gfc::mech
