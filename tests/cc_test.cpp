// Unit tests for DCQCN and its interaction with GFC (the Sec 7 study).
#include <gtest/gtest.h>

#include "cc/dcqcn.hpp"
#include "runner/scenarios.hpp"
#include "stats/throughput.hpp"

namespace gfc::cc {
namespace {

using sim::gbps;
using sim::ms;
using sim::us;

runner::IncastScenario make_dcqcn_incast(int n, runner::FcKind fc,
                                         DcqcnModule** cc_out,
                                         const DcqcnConfig& dc = {}) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = 300'000;
  cfg.fc = runner::FcSetup::derive(fc, cfg.switch_buffer, cfg.link.rate,
                                   cfg.tau());
  cfg.ecn.threshold = 40'000;  // paper Sec 7: ECN threshold 40 KB
  auto s = runner::make_incast(cfg, n);
  auto cc = std::make_unique<DcqcnModule>(s.fabric->net(), dc);
  *cc_out = cc.get();
  s.fabric->net().set_cc(std::move(cc));
  // make_incast created the flows before cc attachment; restart rate state.
  for (net::FlowId f : s.flows)
    (*cc_out)->on_flow_start(s.fabric->net().flow(f));
  return s;
}

TEST(Dcqcn, CnpsAreGeneratedUnderCongestion) {
  DcqcnModule* cc = nullptr;
  auto s = make_dcqcn_incast(8, runner::FcKind::kNone, &cc);
  s.fabric->net().run_until(ms(5));
  EXPECT_GT(cc->cnps_sent(), 10u);
}

TEST(Dcqcn, RateDropsOnCnpAndRecovers) {
  DcqcnConfig dc;
  dc.alpha_init = 0.5;
  DcqcnModule* cc = nullptr;
  auto s = make_dcqcn_incast(8, runner::FcKind::kNone, &cc, dc);
  net::Network& net = s.fabric->net();
  net.run_until(ms(3));
  // 8-to-1 incast: rates must drop well below line rate.
  double max_rate = 0;
  for (net::FlowId f : s.flows)
    max_rate = std::max(max_rate, cc->current_rate(f).gbps());
  EXPECT_LT(max_rate, 9.0);
  EXPECT_GT(max_rate, 0.01);
  // Long run: aggregate throughput approaches the bottleneck rate.
  stats::ThroughputSampler tp(net, us(100));
  net.run_until(ms(30));
  EXPECT_NEAR(tp.average_gbps(0, ms(20), ms(30)), 10.0, 1.5);
}

TEST(Dcqcn, KeepsQueueNearEcnThreshold) {
  DcqcnConfig dc;
  dc.alpha_init = 0.5;
  DcqcnModule* cc = nullptr;
  auto s = make_dcqcn_incast(8, runner::FcKind::kNone, &cc, dc);
  net::Network& net = s.fabric->net();
  net.run_until(ms(30));
  // DCQCN regulates the bottleneck ingress queues to around K; with 8
  // senders the queue hovers above K but far from the 300 KB buffer.
  std::int64_t total_q = 0;
  for (auto h : s.info.senders)
    total_q += s.fabric->ingress_queue_bytes(s.info.sw, h);
  EXPECT_LT(total_q, 8 * 150'000);
  EXPECT_GT(total_q, 0);
}

TEST(Dcqcn, GfcActsAsSafeguardNotSteadyState) {
  // Sec 7 / Fig 20: GFC caps the port rate during the incast transient;
  // once DCQCN converges below GFC's mapped rate, GFC is effectively
  // disabled and the steady state belongs to DCQCN.
  DcqcnConfig dc;
  dc.alpha_init = 0.5;
  DcqcnModule* cc = nullptr;
  auto s = make_dcqcn_incast(8, runner::FcKind::kGfcBuffer, &cc, dc);
  net::Network& net = s.fabric->net();
  bool gfc_engaged = false;
  stats::PeriodicProbe probe(net.sched(), us(20), [&](sim::TimePs) {
    const sim::Rate r =
        s.fabric->egress_rate(s.info.senders[0], s.info.sw);
    if (r < gbps(10)) gfc_engaged = true;
  });
  net.run_until(ms(30));
  EXPECT_TRUE(gfc_engaged);  // the safeguard fired during the transient
  // Steady state: DCQCN rate is the binding constraint (well below 10G),
  // and the GFC-programmed rate is above it (GFC disengaged).
  const double dcqcn_rate = cc->current_rate(s.flows[0]).gbps();
  EXPECT_LT(dcqcn_rate, 5.0);
  const double gfc_rate =
      s.fabric->egress_rate(s.info.senders[0], s.info.sw).gbps();
  EXPECT_GE(gfc_rate, dcqcn_rate - 0.1);
  EXPECT_EQ(net.counters().lossless_violations, 0u);
}

TEST(Dcqcn, NoCnpsWithoutEcn) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::none();
  auto s = runner::make_incast(cfg, 4);  // ECN disabled
  DcqcnModule* cc_raw = nullptr;
  auto cc = std::make_unique<DcqcnModule>(s.fabric->net(), DcqcnConfig{});
  cc_raw = cc.get();
  s.fabric->net().set_cc(std::move(cc));
  for (net::FlowId f : s.flows)
    cc_raw->on_flow_start(s.fabric->net().flow(f));
  s.fabric->net().run_until(ms(3));
  EXPECT_EQ(cc_raw->cnps_sent(), 0u);
  EXPECT_EQ(cc_raw->current_rate(s.flows[0]), gbps(10));
}

TEST(Dcqcn, CnpIntervalRateLimitsCnps) {
  DcqcnConfig dc;
  dc.cnp_interval = us(500);  // very sparse CNPs
  DcqcnModule* cc = nullptr;
  auto s = make_dcqcn_incast(8, runner::FcKind::kNone, &cc, dc);
  s.fabric->net().run_until(ms(5));
  // Up to 8 flows x (5 ms / 500 us) = 80 CNPs max.
  EXPECT_LE(cc->cnps_sent(), 88u);
}

}  // namespace
}  // namespace gfc::cc
