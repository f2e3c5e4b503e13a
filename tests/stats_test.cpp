// Unit tests for measurement utilities: throughput, FCT/slowdown, CDF,
// feedback bandwidth, deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>

#include "flowctl/pfc.hpp"
#include "runner/scenarios.hpp"
#include "stats/cdf.hpp"
#include "stats/deadlock.hpp"
#include "stats/feedback.hpp"
#include "stats/flow_stats.hpp"
#include "stats/probe.hpp"
#include "stats/throughput.hpp"

namespace gfc::stats {
namespace {

using sim::gbps;
using sim::ms;
using sim::us;

TEST(Cdf, QuantilesAndMoments) {
  CdfBuilder cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_DOUBLE_EQ(cdf.mean(), 50.5);
  EXPECT_DOUBLE_EQ(cdf.min(), 1);
  EXPECT_DOUBLE_EQ(cdf.max(), 100);
  EXPECT_NEAR(cdf.quantile(0.5), 50, 1);
  EXPECT_NEAR(cdf.quantile(0.99), 99, 1);
  const auto pts = cdf.points(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().second, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  EXPECT_LE(pts.front().first, pts.back().first);
}

TEST(TimeSeries, MaxSeedsFromFirstSample) {
  TimeSeries ts;
  ts.add(0, -5.0);
  ts.add(us(1), -2.5);
  ts.add(us(2), -9.0);
  // Regression: max() used to start its accumulator at 0, so an
  // all-negative series wrongly reported 0.
  EXPECT_DOUBLE_EQ(ts.max(), -2.5);
  EXPECT_DOUBLE_EQ(ts.min(), -9.0);
}

TEST(TimeSeries, MinMaxMixedAndEmpty) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.max(), 0.0);
  EXPECT_DOUBLE_EQ(ts.min(), 0.0);
  ts.add(0, 3.0);
  EXPECT_DOUBLE_EQ(ts.max(), 3.0);
  EXPECT_DOUBLE_EQ(ts.min(), 3.0);
  ts.add(us(1), -1.0);
  ts.add(us(2), 7.0);
  EXPECT_DOUBLE_EQ(ts.max(), 7.0);
  EXPECT_DOUBLE_EQ(ts.min(), -1.0);
}

TEST(PeriodicProbe, StopFromOutsideCancelsFutureFires) {
  sim::Scheduler sched;
  int fires = 0;
  PeriodicProbe probe(sched, us(10), [&](sim::TimePs) { ++fires; });
  sched.run_until(us(35));
  EXPECT_EQ(fires, 3);
  probe.stop();
  sched.run_until(us(100));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(probe.stopped());
}

TEST(PeriodicProbe, StopFromInsideOwnCallbackTakesEffect) {
  // Regression: stop() from inside the callback used to be a no-op — the
  // timer event had already fired (cancel found nothing) and arm() re-armed
  // unconditionally, so the probe kept firing forever.
  sim::Scheduler sched;
  int fires = 0;
  PeriodicProbe* self = nullptr;
  PeriodicProbe probe(sched, us(10), [&](sim::TimePs) {
    if (++fires == 3) self->stop();
  });
  self = &probe;
  sched.run_until(us(200));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(probe.stopped());
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Cdf, EmptyIsSafe) {
  CdfBuilder cdf;
  EXPECT_EQ(cdf.mean(), 0.0);
  EXPECT_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.points(5).empty());
}

TEST(Throughput, AggregateMatchesDeliveredBytes) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::none();
  auto s = runner::make_incast(cfg, 1);
  net::Network& net = s.fabric->net();
  ThroughputSampler sampler(net, us(100));
  net.run_until(ms(2));
  EXPECT_EQ(sampler.total_bytes(), net.counters().data_bytes_delivered);
  EXPECT_NEAR(sampler.average_gbps(0, 0, ms(2)), 10.0, 0.5);
  const auto series = sampler.series_gbps();
  EXPECT_GT(series.size(), 15u);
  EXPECT_NEAR(series[10], 10.0, 0.5);
}

TEST(Throughput, PerFlowKeying) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 2);
  net::Network& net = s.fabric->net();
  ThroughputSampler sampler(net, us(100), ThroughputSampler::Key::kPerFlow);
  net.run_until(ms(5));
  // Two competing flows share the 10G bottleneck roughly equally.
  const double f0 = sampler.average_gbps(s.flows[0], ms(3), ms(5));
  const double f1 = sampler.average_gbps(s.flows[1], ms(3), ms(5));
  EXPECT_NEAR(f0, 5.0, 0.8);
  EXPECT_NEAR(f1, 5.0, 0.8);
}

TEST(FlowStatsTest, SlowdownOfUncontendedFlowIsNearOne) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::none();
  // A single tiny bootstrap flow, then the measured flow alone on an idle
  // network.
  auto s = runner::make_incast(cfg, 1, 1'500);
  net::Network& net = s.fabric->net();
  FlowStats stats(net, [&](const net::Flow& flow) {
    return FlowStats::default_ideal_fct(flow, cfg.link.rate, 1,
                                        cfg.link.prop_delay, cfg.link.mtu);
  });
  net.create_flow(s.info.senders[0], s.info.receiver, 0, 150'000, ms(1));
  net.run_until(ms(5));
  ASSERT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.records()[1].slowdown, 1.0, 0.1);
}

TEST(FlowStatsTest, ContendedFlowsSlowDown) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 4, 500'000);  // 4 x 500 KB into one host
  net::Network& net = s.fabric->net();
  FlowStats stats(net, [&](const net::Flow& flow) {
    return FlowStats::default_ideal_fct(flow, cfg.link.rate, 1,
                                        cfg.link.prop_delay, cfg.link.mtu);
  });
  net.run_until(ms(10));
  ASSERT_EQ(stats.count(), 4u);
  // 4:1 incast: mean slowdown near 4x (the last finisher saw ~4x).
  EXPECT_GT(stats.mean_slowdown(), 1.8);
}

TEST(Feedback, QuietWithoutCongestion) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 1);
  net::Network& net = s.fabric->net();
  FeedbackBandwidthMonitor monitor(net);
  net.run_until(ms(5));
  EXPECT_GT(monitor.samples().count(), 0u);
  // One uncongested flow: no stage crossings, no feedback.
  EXPECT_LT(monitor.max_fraction(), 1e-4);
}

TEST(Feedback, BoundedUnderCongestion) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 2);
  net::Network& net = s.fabric->net();
  FeedbackBandwidthMonitor monitor(net);
  net.run_until(ms(20));
  // Paper Fig 19: well under 0.5 % of link bandwidth even at the maximum.
  EXPECT_LT(monitor.max_fraction(), 0.005);
  EXPECT_LT(monitor.mean_fraction(), 0.004);
}

TEST(Deadlock, CleanNetworkReportsNothing) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 2);
  DeadlockDetector detector(s.fabric->net());
  s.fabric->net().run_until(ms(10));
  EXPECT_FALSE(detector.deadlocked());
}

TEST(Deadlock, RingPfcProducesWitnessCycle) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_ring(cfg);
  DeadlockDetector detector(s.fabric->net());
  s.fabric->net().run_until(ms(20));
  ASSERT_TRUE(detector.deadlocked());
  // The witness must be a cycle over the three inter-switch egress ports.
  EXPECT_GE(detector.cycle().size(), 3u);
  for (const auto& [node, port] : detector.cycle())
    EXPECT_TRUE(s.fabric->net().node(node).is_switch());
  EXPECT_GT(detector.detected_at(), 0);
}

TEST(Deadlock, TwoSwitchRoutingLoopWitnessIsExact) {
  // DCFIT-style minimal case: a transient routing loop bounces packets for
  // H2 between S0 and S1 until both directions of the inter-switch link
  // pause each other. The witness must be exactly the 2-cycle over the two
  // inter-switch egress ports — no host ports, nothing else.
  net::Network net;
  const net::NodeId h0 = net.add_host("H0").id();
  const net::NodeId h2 = net.add_host("H2").id();
  const net::NodeId s0 = net.add_switch("S0", 100'000).id();
  const net::NodeId s1 = net.add_switch("S1", 100'000).id();
  net.connect(h0, s0, sim::gbps(10), us(1));  // S0: port 0
  net.connect(h2, s0, sim::gbps(10), us(1));  // S0: port 1
  net.connect(s0, s1, sim::gbps(10), us(1));  // S0: port 2 / S1: port 0
  net.sw(s0)->set_route(h0, {0});
  net.sw(s0)->set_route(h2, {2});  // mis-routed: bounce to S1...
  net.sw(s1)->set_route(h2, {0});  // ...and straight back.
  for (net::NodeId id : {h0, h2, s0, s1})
    net.node(id).set_fc(std::make_unique<flowctl::PfcModule>(
        flowctl::PfcConfig{80'000, 77'000}));

  net.create_flow(h0, h2, 0, net::Flow::kUnbounded, 0);
  net.run_until(ms(5));

  DeadlockDetector detector(net);
  std::vector<std::pair<net::NodeId, int>> cycle;
  ASSERT_TRUE(detector.cycle_now(&cycle));
  std::sort(cycle.begin(), cycle.end());
  const std::vector<std::pair<net::NodeId, int>> want = {{s0, 2}, {s1, 0}};
  EXPECT_EQ(cycle, want);
}

TEST(Deadlock, FourSwitchRingWitnessIsTheClockwiseCycle) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_ring(cfg, 4, 2);
  DeadlockDetector detector(s.fabric->net());
  s.fabric->net().run_until(ms(20));
  ASSERT_TRUE(detector.deadlocked());

  // Every flow runs clockwise, so the witness must be exactly the four
  // clockwise inter-switch egress ports S_i -> S_{i+1}. The search roots
  // at the smallest (node, port), S0's, and follows the wait-for edges
  // from there: the order the flight dumps print.
  std::vector<std::pair<net::NodeId, int>> want;
  for (int i = 0; i < 4; ++i) {
    const auto from = s.info.switches[static_cast<std::size_t>(i)];
    const auto to = s.info.switches[static_cast<std::size_t>((i + 1) % 4)];
    want.emplace_back(from, s.fabric->port_to(from, to));
  }
  EXPECT_EQ(detector.cycle(), want);
  std::vector<std::pair<net::NodeId, int>> now;
  ASSERT_TRUE(detector.cycle_now(&now));
  EXPECT_EQ(now, want);
}

TEST(Deadlock, StopOnDetectHaltsEarly) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_ring(cfg);
  DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  DeadlockDetector detector(s.fabric->net(), dl_opts);
  s.fabric->net().run_until(ms(100));
  ASSERT_TRUE(detector.deadlocked());
  EXPECT_LT(s.fabric->net().sched().now(), ms(50));
}

}  // namespace
}  // namespace gfc::stats
