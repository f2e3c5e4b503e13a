// Tests for the runtime fault-injection subsystem (src/fault/) and the
// self-healing flow-control modes it exercises: reproducible control-frame
// loss, the classic lost-RESUME PFC wedge and its pause-expiry repair,
// CBFC credit-loss healing, mid-run link flaps with re-routing and the
// packets a downed wire loses, and drain-and-reset deadlock recovery.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fault/link_scheduler.hpp"
#include "flowctl/cbfc.hpp"
#include "flowctl/pfc.hpp"
#include "net/network.hpp"
#include "runner/scenarios.hpp"
#include "stats/deadlock.hpp"
#include "stats/throughput.hpp"

namespace gfc::fault {
namespace {

using net::Flow;
using net::Network;
using net::NodeId;
using net::PacketType;
using sim::gbps;
using sim::ms;
using sim::us;

// ---------------------------------------------------------------------------
// FaultPlan basics on runner-built scenarios.

TEST(FaultPlan, ReproducibleAcrossIdenticalRuns) {
  auto run = [] {
    runner::ScenarioConfig cfg;
    cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                     cfg.link.rate, cfg.tau());
    cfg.fault.seed = 99;
    for (std::size_t t = 0; t < cfg.fault.drop_prob.size(); ++t)
      if (net::is_link_control(static_cast<PacketType>(t)))
        cfg.fault.drop_prob[t] = 0.1;
    auto s = runner::make_ring(cfg, 3, 2);
    s.fabric->net().run_until(ms(3));
    const FaultPlan* plan = s.fabric->fault_plan();
    EXPECT_NE(plan, nullptr);
    return std::tuple{plan->counters().consulted, plan->counters().dropped,
                      s.fabric->net().counters().data_bytes_delivered,
                      s.fabric->net().counters().lossless_violations};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(std::get<0>(a), 0u);
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_EQ(a, b);
}

TEST(FaultPlan, ZeroRatesInstallNoHook) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 2);
  EXPECT_EQ(s.fabric->fault_plan(), nullptr);
  EXPECT_EQ(s.fabric->net().fault_hook(), nullptr);
}

// ---------------------------------------------------------------------------
// The lost-RESUME wedge and its self-healing repairs, on the H0-S0-S1-H1
// line from the flowctl tests: congestion is created by sticking S1's
// egress to H1, and the single RESUME S1 sends on unsticking is dropped.

class StuckGate final : public net::TxGate {
 public:
  bool allowed(const net::Packet&, sim::TimePs, sim::TimePs*) override {
    return false;
  }
  void on_transmit(const net::Packet&, sim::TimePs) override {}
};

class ResumeLossFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    h0_ = net_.add_host("H0").id();
    h1_ = net_.add_host("H1").id();
    s0_ = net_.add_switch("S0", kBuffer).id();
    s1_ = net_.add_switch("S1", kBuffer).id();
    net_.connect(h0_, s0_, gbps(10), us(1));  // H0: port 0 / S0: port 0
    net_.connect(s0_, s1_, gbps(10), us(1));  // S0: port 1 / S1: port 0
    net_.connect(s1_, h1_, gbps(10), us(1));  // S1: port 1 / H1: port 0
    net_.sw(s0_)->set_route(h1_, {1});
    net_.sw(s1_)->set_route(h1_, {1});
    net_.sw(s0_)->set_route(h0_, {0});
    net_.sw(s1_)->set_route(h0_, {0});
  }

  void attach_pfc(sim::TimePs pause_timeout) {
    for (NodeId id : {h0_, h1_, s0_, s1_})
      net_.node(id).set_fc(std::make_unique<flowctl::PfcModule>(
          flowctl::PfcConfig{80'000, 77'000, pause_timeout}));
  }

  /// Congest until S1 pauses S0, then unstick while every RESUME on the
  /// wire is dropped (fault window covers the drain), then run fault-free.
  std::uint64_t run_lost_resume(sim::TimePs pause_timeout) {
    attach_pfc(pause_timeout);
    FaultConfig fc;
    fc.seed = 3;
    fc.active_until = ms(3);
    fc.drop(PacketType::kPfcResume) = 1.0;
    FaultPlan plan(net_, fc);

    net_.sw(s1_)->port(1).set_gate(std::make_unique<StuckGate>());
    net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
    net_.run_until(ms(2));
    auto* fc1 = dynamic_cast<flowctl::PfcModule*>(net_.sw(s1_)->fc());
    EXPECT_TRUE(fc1->pause_sent(0, 0));

    net_.sw(s1_)->port(1).set_gate(std::make_unique<net::OpenGate>());
    net_.sw(s1_)->port(1).kick();
    net_.run_until(ms(5));
    const std::uint64_t at_5ms = net_.counters().data_packets_delivered;
    EXPECT_GE(plan.counters().dropped_by_type[static_cast<std::size_t>(
                  PacketType::kPfcResume)],
              1u);
    net_.run_until(ms(8));
    delivered_delta_ = net_.counters().data_packets_delivered - at_5ms;
    return delivered_delta_;
  }

  static constexpr std::int64_t kBuffer = 100'000;
  Network net_;
  NodeId h0_, h1_, s0_, s1_;
  std::uint64_t delivered_delta_ = 0;
};

TEST_F(ResumeLossFixture, LostResumeWedgesClassicPfcForever) {
  // Edge-triggered PFC has no second chance: the queue is already below
  // XON, so no further RESUME is ever generated and the upstream stays
  // paused for the rest of time — even though faults stop at 3 ms.
  EXPECT_EQ(run_lost_resume(0), 0u);
}

TEST_F(ResumeLossFixture, PauseExpiryHealsLostResume) {
  // With 802.1Qbb-style quanta the pause expires 50 us after the
  // downstream stops refreshing it; the line returns to full rate.
  const std::uint64_t delta = run_lost_resume(us(50));
  // 3 ms at 10G is ~2500 MTU packets; allow generous slack for the re-ramp.
  EXPECT_GT(delta, 2000u);
}

TEST(PauseExpiry, StaysLosslessWhenHealthy) {
  // The expiry must never fire early on a healthy link: the downstream
  // refreshes standing pauses every timeout/2, so a congested-but-fault-
  // free incast stays lossless.
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  cfg.fc.pfc_pause_timeout = us(50);
  auto s = runner::make_incast(cfg, 4);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, us(100));
  net.run_until(ms(4));
  EXPECT_EQ(net.counters().lossless_violations, 0u);
  EXPECT_NEAR(tp.average_gbps(0, ms(1), ms(4)), 10.0, 0.5);
}

// ---------------------------------------------------------------------------
// CBFC credit loss: periodic cumulative advertisements self-heal.

TEST(CbfcCreditLoss, DropWindowStallsThenHeals) {
  auto run = [](sim::TimePs sync_period) {
    Network net;
    const NodeId h0 = net.add_host("H0").id();
    const NodeId h1 = net.add_host("H1").id();
    const NodeId s0 = net.add_switch("S0", 100'000).id();
    const NodeId s1 = net.add_switch("S1", 100'000).id();
    net.connect(h0, s0, gbps(10), us(1));
    net.connect(s0, s1, gbps(10), us(1));
    net.connect(s1, h1, gbps(10), us(1));
    net.sw(s0)->set_route(h1, {1});
    net.sw(s1)->set_route(h1, {1});
    net.sw(s0)->set_route(h0, {0});
    net.sw(s1)->set_route(h0, {0});
    flowctl::CbfcConfig cc;
    cc.period = us(10);
    cc.buffer_bytes = 100'000;
    cc.sync_period = sync_period;
    for (NodeId id : {h0, h1, s0, s1})
      net.node(id).set_fc(std::make_unique<flowctl::CbfcModule>(cc));

    FaultConfig fc;
    fc.seed = 5;
    fc.active_from = ms(1);
    fc.active_until = ms(2);
    fc.drop(PacketType::kCredit) = 1.0;  // black out all credits
    FaultPlan plan(net, fc);

    stats::ThroughputSampler tp(net, us(100));
    net.create_flow(h0, h1, 0, Flow::kUnbounded, 0);
    net.run_until(ms(4));
    EXPECT_GT(plan.counters().dropped, 50u);
    EXPECT_EQ(net.counters().lossless_violations, 0u);
    // Mid-window: the frozen FCCL admits at most one buffer's worth, then
    // the senders sit credit-starved.
    EXPECT_LT(tp.average_gbps(0, ms(1.5), ms(2)), 1.0);
    // One advertisement after the window ends restores the line.
    EXPECT_NEAR(tp.average_gbps(0, ms(2.5), ms(4)), 10.0, 0.5);
    return net.counters().control_frames_sent;
  };
  const std::uint64_t frames_plain = run(0);
  const std::uint64_t frames_sync = run(us(25));
  // The sync timer is extra redundancy on top of the periodic stream.
  EXPECT_GT(frames_sync, frames_plain);
}

// ---------------------------------------------------------------------------
// Link flaps: state flip, routing recompute, stranded-packet re-route.

const char* arch_name(net::SwitchArch arch) {
  switch (arch) {
    case net::SwitchArch::kOutputQueuedFifo: return "output_queued";
    case net::SwitchArch::kCioqRoundRobin: return "cioq";
    case net::SwitchArch::kInputQueued: return "input_queued";
  }
  return "unknown";
}

// Every switch architecture: CIOQ and input-queued switches also hold
// packets in input FIFOs, which reroute_stranded retargets and
// drain_egress drops from in place.
class SwitchArchTest : public testing::TestWithParam<net::SwitchArch> {};
INSTANTIATE_TEST_SUITE_P(
    AllArchs, SwitchArchTest,
    testing::Values(net::SwitchArch::kOutputQueuedFifo,
                    net::SwitchArch::kCioqRoundRobin,
                    net::SwitchArch::kInputQueued),
    [](const auto& info) { return arch_name(info.param); });

void diamond_reroutes_around_outage(net::SwitchArch arch, bool backlog) {
  // H0 - S0 <{S1,S2}> S3 - H1: the primary path via S1 goes down mid-run
  // and traffic must continue via S2, then move back when S1 returns. With
  // `backlog`, H2 on S0 sends a 200 KB burst from 0.9 ms, so S0 holds
  // ~125 KB queued for the S1 link when it fails.
  Network net;
  const NodeId h0 = net.add_host("H0").id();
  const NodeId h1 = net.add_host("H1").id();
  const NodeId s0 = net.add_switch("S0", 300'000).id();
  const NodeId s1 = net.add_switch("S1", 300'000).id();
  const NodeId s2 = net.add_switch("S2", 300'000).id();
  const NodeId s3 = net.add_switch("S3", 300'000).id();
  for (const NodeId s : {s0, s1, s2, s3}) net.sw(s)->set_arch(arch);
  net.connect(h0, s0, gbps(10), us(1));  // S0: port 0
  net.connect(s0, s1, gbps(10), us(1));  // S0: port 1 / S1: port 0
  net.connect(s0, s2, gbps(10), us(1));  // S0: port 2 / S2: port 0
  net.connect(s1, s3, gbps(10), us(1));  // S1: port 1 / S3: port 0
  net.connect(s2, s3, gbps(10), us(1));  // S2: port 1 / S3: port 1
  net.connect(s3, h1, gbps(10), us(1));  // S3: port 2
  net.sw(s0)->set_route(h1, {1});
  net.sw(s1)->set_route(h1, {1});
  net.sw(s2)->set_route(h1, {1});
  net.sw(s3)->set_route(h1, {2});
  if (backlog) {
    const NodeId h2 = net.add_host("H2").id();
    net.connect(h2, s0, gbps(10), us(1));  // S0: port 3
    net.create_flow(h2, h1, 0, 200'000, us(900));
  }

  int transitions = 0;
  LinkScheduler links(net, [&](const LinkEvent& ev) {
    ++transitions;
    net.sw(s0)->set_route(h1, {ev.up ? 1 : 2});
  });
  links.schedule_flap(s0, s1, ms(1), ms(2));

  net.create_flow(h0, h1, 0, Flow::kUnbounded, 0);
  net.run_until(ms(4));

  EXPECT_EQ(links.downs(), 1);
  EXPECT_EQ(links.ups(), 1);
  EXPECT_EQ(transitions, 2);
  EXPECT_EQ(net.counters().route_drops, 0u);
  EXPECT_EQ(net.counters().failover_drops, 0u);  // alternative path existed
  EXPECT_EQ(net.counters().lossless_violations, 0u);
  // At most the packets serialized into the dead wire are lost.
  EXPECT_LE(net.counters().wire_lost_packets, 3u);
  // ~10 Gb/s for 4 ms = 5 MB; the flap costs at most a small blip.
  EXPECT_GT(net.counters().data_bytes_delivered, 4'500'000);
  EXPECT_TRUE(net.sw(s0)->port(1).link_up());  // restored
}

TEST(LinkFlap, DiamondReroutesAroundOutage) {
  diamond_reroutes_around_outage(net::SwitchArch::kOutputQueuedFifo,
                                 /*backlog=*/false);
}

TEST_P(SwitchArchTest, DiamondReroutesQueuedPackets) {
  diamond_reroutes_around_outage(GetParam(), /*backlog=*/true);
}

TEST(LinkFlap, DownedPortIsNotHoldAndWait) {
  // A port whose link is down holds packets but is not flow-control
  // blocked; the deadlock detector must not read the outage as deadlock.
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_incast(cfg, 2);
  net::Network& net = s.fabric->net();
  stats::DeadlockDetector det(net);
  LinkScheduler links(net);
  links.schedule(
      {ms(1), s.info.sw, static_cast<net::NodeId>(s.info.receiver), false});
  net.run_until(ms(6));  // receiver unreachable from 1 ms on
  EXPECT_FALSE(det.deadlocked());
}

struct Stamped {
  std::uint64_t id;
  sim::TimePs t;
};

/// Open gate that records, in send order, each data packet's id and the
/// instant its last bit leaves the port (its hand-off to the wire).
class HandOffLog final : public net::TxGate {
 public:
  explicit HandOffLog(sim::Rate rate) : rate_(rate) {}
  bool allowed(const net::Packet&, sim::TimePs, sim::TimePs*) override {
    return true;
  }
  void on_transmit(const net::Packet& pkt, sim::TimePs now) override {
    sent.push_back({pkt.id, now + sim::tx_time(rate_, pkt.size_bytes)});
  }
  std::vector<Stamped> sent;

 private:
  sim::Rate rate_;
};

class ArrivalLog final : public net::DeliveryListener {
 public:
  void on_delivery(const net::Packet& pkt, sim::TimePs now) override {
    arrived.push_back({pkt.id, now});
  }
  std::vector<Stamped> arrived;
};

TEST(LinkFlap, DownedWireLosesWhatIsInFlight) {
  // H0 -> H1 directly over a 20 us wire, a line-rate stream, and an outage
  // far longer than the wire: exactly the packets whose arrival falls in
  // the outage are lost, each recorded at H1's ingress, and the stream
  // resumes in send order.
  constexpr sim::TimePs kProp = us(20);
  const sim::TimePs down_at = us(1000.5);  // no arrival lands on the flip
  const sim::TimePs up_at = us(1500);
  Network net;
  const NodeId h0 = net.add_host("H0").id();
  const NodeId h1 = net.add_host("H1").id();
  const auto [p0, p1] = net.connect(h0, h1, gbps(10), kProp);
  auto log = std::make_unique<HandOffLog>(gbps(10));
  const HandOffLog& sent = *log;
  net.node(h0).port(p0).set_gate(std::move(log));
  ArrivalLog arrivals;
  net.add_delivery_listener(&arrivals);
  trace::TraceOptions topts;
  topts.categories = trace::kCatLink;
  trace::Tracer tracer(topts);
  net.set_tracer(&tracer);

  LinkScheduler links(net);
  links.schedule_flap(h0, h1, down_at, up_at);
  net.create_flow(h0, h1, 0, Flow::kUnbounded, 0);
  net.run_until(ms(2));

  std::uint64_t in_flight = 0;
  for (const auto& s : sent.sent)
    if (s.t + kProp > down_at && s.t < up_at) ++in_flight;
  EXPECT_GE(in_flight, 16u);  // 20 us of 1.2 us packets, plus the one
                              // serializing when the link fell
  EXPECT_EQ(net.counters().wire_lost_packets, in_flight);

  std::uint64_t lost_records = 0;
  for (std::size_t i = 0; i < tracer.buffer().size(); ++i) {
    const trace::TraceEvent& e = tracer.buffer()[i];
    if (e.type != static_cast<std::uint8_t>(trace::EventType::kWireLost))
      continue;
    ++lost_records;
    EXPECT_EQ(e.node, h1);
    EXPECT_EQ(e.port, p1);
    EXPECT_GE(e.t, down_at);
    EXPECT_LT(e.t, down_at + kProp + us(1.2));
  }
  EXPECT_EQ(lost_records, in_flight);

  std::vector<std::uint64_t> sent_after, arrived_after;
  for (const auto& s : sent.sent)
    if (s.t > up_at) sent_after.push_back(s.id);
  for (const auto& a : arrivals.arrived)
    if (a.t > up_at) arrived_after.push_back(a.id);
  ASSERT_GT(arrived_after.size(), 300u);
  ASSERT_LE(arrived_after.size(), sent_after.size());
  sent_after.resize(arrived_after.size());
  EXPECT_EQ(arrived_after, sent_after);
}

// ---------------------------------------------------------------------------
// Deadlock recovery: drain-and-reset keeps the ring alive.

void drains_ring_and_keeps_delivering(net::SwitchArch arch, int n_switches,
                                      int hops, double min_tail_gbps) {
  runner::ScenarioConfig cfg;
  cfg.arch = arch;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  auto s = runner::make_ring(cfg, n_switches, hops);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, us(100));
  stats::DeadlockOptions dl_opts;
  dl_opts.recover = true;
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(ms(10));
  EXPECT_GE(det.detections(), 1);
  EXPECT_GE(det.recoveries(), 1);
  EXPECT_GT(det.recovered_packets(), 0u);
  EXPECT_FALSE(det.deadlocked());  // recovery never latches
  // The same scenario with stop_on_detect halts near 4 ms with zero tail
  // throughput; recovery keeps the last 2.5 ms busy.
  EXPECT_GT(tp.average_gbps(0, ms(7.5), ms(10)), min_tail_gbps);
}

TEST(DeadlockRecovery, DrainsRingAndKeepsDelivering) {
  drains_ring_and_keeps_delivering(net::SwitchArch::kOutputQueuedFifo, 3, 2,
                                   0.5);
}

TEST_P(SwitchArchTest, DrainsRingAndKeepsDelivering) {
  // Fair arbitration keeps the symmetric 3-ring out of deadlock
  // (bench/ablation_arbitration); 3-hop flows on a 4-ring still wedge it,
  // and re-wedge within a millisecond of each drain, so the tail only has
  // to be nonzero.
  drains_ring_and_keeps_delivering(GetParam(), 4, 3, 0.0);
}

TEST(DeadlockRecovery, RunSummaryReportsRecoveries) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  // A deadlock-prone fat-tree case (same family as Table 1's k=4 scan).
  auto s = runner::make_random_fattree(cfg, 4, 0.05, 2);
  runner::RunOptions opts;
  opts.duration = ms(6);
  opts.recover_deadlock = true;
  const runner::RunSummary r = runner::run_closed_loop(s, opts);
  EXPECT_FALSE(r.stopped_on_deadlock);
  EXPECT_EQ(r.ended_at, ms(6));  // recovery mode never stops early
  EXPECT_GE(r.deadlock_detections, r.deadlock_recoveries);
}

}  // namespace
}  // namespace gfc::fault
