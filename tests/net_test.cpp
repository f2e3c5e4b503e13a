// Unit tests for the network substrate: packet pool, links/serialization,
// egress port queueing and gating, switch forwarding and ingress
// accounting, host send/receive machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/dcqcn.hpp"
#include "net/ecmp.hpp"
#include "net/network.hpp"

namespace gfc::net {
namespace {

using sim::gbps;
using sim::us;

TEST(PacketPool, AcquireGivesFreshZeroedPackets) {
  PacketPool pool;
  Packet* a = pool.acquire();
  a->size_bytes = 999;
  a->ecn_ce = true;
  const auto id_a = a->id;
  pool.release(a);
  Packet* b = pool.acquire();  // recycles the slot
  EXPECT_EQ(b->size_bytes, 0);
  EXPECT_FALSE(b->ecn_ce);
  EXPECT_NE(b->id, id_a);  // ids never repeat
  pool.release(b);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(PacketPool, ManyPacketsSpanChunks) {
  PacketPool pool;
  std::vector<Packet*> pkts;
  for (int i = 0; i < 5000; ++i) pkts.push_back(pool.acquire());
  EXPECT_EQ(pool.live_count(), 5000u);
  for (Packet* p : pkts) pool.release(p);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(Ecmp, DeterministicAndSpread) {
  EXPECT_EQ(ecmp_select(42, 7, 4), ecmp_select(42, 7, 4));
  int histogram[4] = {0, 0, 0, 0};
  for (std::uint64_t salt = 0; salt < 400; ++salt)
    ++histogram[ecmp_select(salt, 3, 4)];
  for (int h : histogram) EXPECT_GT(h, 50);  // roughly uniform
}

// ECMP selection: pow2 masking pinned (goldens depend on it), non-pow2
// de-biased via the Lemire multiply-shift.

TEST(EcmpSelect, PowerOfTwoPathIsPinnedToMasking) {
  for (std::uint64_t salt : {1ull, 42ull, 0x12345678ull, ~0ull}) {
    for (std::int32_t sw : {0, 1, 7, 1000}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{64}}) {
        EXPECT_EQ(net::ecmp_select(salt, sw, n),
                  static_cast<std::size_t>(net::ecmp_hash(salt, sw) & (n - 1)));
      }
    }
  }
}

TEST(EcmpSelect, NonPowerOfTwoUsesMultiplyShift) {
  for (std::uint64_t salt : {3ull, 99ull, 0xDEADBEEFull}) {
    for (std::int32_t sw : {0, 5, 123}) {
      for (std::size_t n : {std::size_t{3}, std::size_t{5}, std::size_t{7},
                            std::size_t{12}}) {
        const std::uint64_t h = net::ecmp_hash(salt, sw);
        const auto expect = static_cast<std::size_t>(
            (static_cast<unsigned __int128>(h) * n) >> 64);
        EXPECT_EQ(net::ecmp_select(salt, sw, n), expect);
        EXPECT_LT(net::ecmp_select(salt, sw, n), n);
      }
    }
  }
}

TEST(EcmpSelect, NonPowerOfTwoIsRoughlyUniform) {
  // 30k hashed salts over 3 choices: the multiply-shift keeps every bucket
  // within 10% of the mean (the modulo path it replaced passes this too —
  // the point is catching a future regression to a biased mapping).
  constexpr int kTrials = 30000;
  int count[3] = {0, 0, 0};
  for (int i = 0; i < kTrials; ++i)
    ++count[net::ecmp_select(static_cast<std::uint64_t>(i) * 0x9E37u + 1, 17, 3)];
  for (int c : count) {
    EXPECT_GT(c, kTrials / 3 * 9 / 10);
    EXPECT_LT(c, kTrials / 3 * 11 / 10);
  }
}

class TwoHostFixture : public ::testing::Test {
 protected:
  // H0 --- S0 --- H1, 10G links, 1 us propagation.
  void SetUp() override {
    h0_ = net_.add_host("H0").id();
    h1_ = net_.add_host("H1").id();
    s0_ = net_.add_switch("S0", 300'000).id();
    net_.connect(h0_, s0_, gbps(10), us(1));
    net_.connect(h1_, s0_, gbps(10), us(1));
    net_.sw(s0_)->set_route(h0_, {0});
    net_.sw(s0_)->set_route(h1_, {1});
  }
  Network net_;
  NodeId h0_, h1_, s0_;
};

/// Lines of `err` that are ingress-overflow warnings.
int overflow_warnings(const std::string& err) {
  int n = 0;
  for (std::size_t at = err.find("ingress buffer overflow");
       at != std::string::npos; at = err.find("ingress buffer overflow", at + 1))
    ++n;
  return n;
}

TEST(SwitchOverflow, WarnsOncePerEpisodeAndCountsEveryPacket) {
  // Data arrives on ports 0 and 1 for H2 behind port 2, whose link is down
  // so nothing leaves until the test polls. 10 KB into a 5 KB buffer is
  // five violations and one warning; a drain back to the buffer re-arms it.
  Network net;
  std::vector<NodeId> hosts;
  for (int i = 0; i < 3; ++i)
    hosts.push_back(net.add_host("H" + std::to_string(i)).id());
  SwitchNode& sw = net.add_switch("S", 5'000);
  for (const NodeId h : hosts) net.connect(h, sw.id(), gbps(10), 0);
  sw.set_route(hosts[2], {2});
  net.set_link_state(sw.id(), hosts[2], false);
  const auto arrive = [&](int port) {
    Packet* p = net.pool().acquire();
    p->size_bytes = 1000;
    p->dst = hosts[2];
    sw.receive(p, port);
  };
  const auto drain_one = [&] {
    sim::TimePs wake_at = sim::kTimeNever;
    bool waiting = false;
    Packet* p = sw.poll_data(2, net.sched().now(), &wake_at, true, &waiting);
    ASSERT_NE(p, nullptr);
    sw.on_departure(*p, 2);
    net.free_packet(p);
  };

  testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i) arrive(0);
  EXPECT_EQ(overflow_warnings(testing::internal::GetCapturedStderr()), 1);
  EXPECT_EQ(net.counters().lossless_violations, 5u);

  testing::internal::CaptureStderr();
  for (int i = 0; i < 4; ++i) drain_one();  // 6 KB: still the same episode
  arrive(0);
  EXPECT_EQ(overflow_warnings(testing::internal::GetCapturedStderr()), 0);
  EXPECT_EQ(net.counters().lossless_violations, 6u);

  testing::internal::CaptureStderr();
  for (int i = 0; i < 6; ++i) arrive(1);  // another port: its own episode
  EXPECT_EQ(overflow_warnings(testing::internal::GetCapturedStderr()), 1);
  EXPECT_EQ(net.counters().lossless_violations, 7u);

  testing::internal::CaptureStderr();
  for (int i = 0; i < 2; ++i) drain_one();  // port 0 back to 5 KB
  arrive(0);
  EXPECT_EQ(overflow_warnings(testing::internal::GetCapturedStderr()), 1);
  EXPECT_EQ(net.counters().lossless_violations, 8u);
}

TEST_F(TwoHostFixture, SinglepacketTiming) {
  net_.create_flow(h0_, h1_, 0, 1500, 0);
  net_.run_until(sim::ms(1));
  // Store-and-forward: 2 serializations (1.2us each) + 2 propagations (1us).
  EXPECT_EQ(net_.counters().data_packets_delivered, 1u);
  const Flow& f = net_.flow(0);
  EXPECT_EQ(f.finish_time, us(1.2) + us(1) + us(1.2) + us(1));
}

TEST_F(TwoHostFixture, FlowCompletionAccounting) {
  net_.create_flow(h0_, h1_, 0, 15'000, 0);  // 10 MTU-size packets
  net_.run_until(sim::ms(1));
  const Flow& f = net_.flow(0);
  EXPECT_TRUE(f.completed());
  EXPECT_EQ(f.bytes_delivered, 15'000);
  EXPECT_EQ(net_.counters().flows_completed, 1u);
  EXPECT_EQ(net_.counters().data_packets_delivered, 10u);
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
}

TEST_F(TwoHostFixture, SubMtuTailPacket) {
  net_.create_flow(h0_, h1_, 0, 1600, 0);  // 1500 + 100
  net_.run_until(sim::ms(1));
  EXPECT_EQ(net_.counters().data_packets_delivered, 2u);
  EXPECT_EQ(net_.flow(0).bytes_delivered, 1600);
}

TEST_F(TwoHostFixture, UnboundedFlowKeepsSending) {
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(sim::ms(2));
  // ~10 Gb/s for 2 ms = 2.5 MB minus ramp; expect > 2 MB delivered.
  EXPECT_GT(net_.counters().data_bytes_delivered, 2'000'000);
  EXPECT_FALSE(net_.flow(0).completed());
}

TEST_F(TwoHostFixture, LineRateThroughput) {
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(sim::ms(5));
  const double gbps_measured =
      static_cast<double>(net_.counters().data_bytes_delivered) * 8.0 /
      sim::to_seconds(sim::ms(5)) / 1e9;
  EXPECT_NEAR(gbps_measured, 10.0, 0.1);
}

TEST_F(TwoHostFixture, DelayedFlowStart) {
  net_.create_flow(h0_, h1_, 0, 1500, us(100));
  net_.run_until(us(99));
  EXPECT_EQ(net_.counters().data_packets_delivered, 0u);
  net_.run_until(sim::ms(1));
  EXPECT_EQ(net_.counters().data_packets_delivered, 1u);
  EXPECT_EQ(net_.flow(0).finish_time, us(100) + us(1.2) + us(1) + us(1.2) + us(1));
}

TEST_F(TwoHostFixture, SenderPacingHonorsSendRate) {
  Flow& f = net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  f.send_rate = gbps(2);
  net_.run_until(sim::ms(5));
  const double gbps_measured =
      static_cast<double>(net_.counters().data_bytes_delivered) * 8.0 /
      sim::to_seconds(sim::ms(5)) / 1e9;
  EXPECT_NEAR(gbps_measured, 2.0, 0.1);
}

TEST_F(TwoHostFixture, TwoFlowsShareNicFairly) {
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(sim::ms(4));
  const auto d0 = net_.flow(0).bytes_delivered;
  const auto d1 = net_.flow(1).bytes_delivered;
  EXPECT_NEAR(static_cast<double>(d0) / static_cast<double>(d1), 1.0, 0.05);
}

TEST_F(TwoHostFixture, IngressAccountingReturnsToZero) {
  net_.create_flow(h0_, h1_, 0, 15'000, 0);
  net_.run_until(sim::ms(1));
  for (int p = 0; p < net_.sw(s0_)->port_count(); ++p)
    for (int prio = 0; prio < kNumPriorities; ++prio)
      EXPECT_EQ(net_.sw(s0_)->ingress_bytes(p, prio), 0);
}

TEST_F(TwoHostFixture, UnroutablePacketCountsDrop) {
  NodeId h2 = net_.add_host("H2").id();
  net_.connect(h2, s0_, gbps(10), us(1));
  // No route installed for h2 as a destination.
  net_.create_flow(h0_, h2, 0, 1500, 0);
  net_.run_until(sim::ms(1));
  EXPECT_EQ(net_.counters().route_drops, 1u);
}

TEST_F(TwoHostFixture, PriorityQueuesIndependent) {
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.create_flow(h0_, h1_, 3, Flow::kUnbounded, 0);
  net_.run_until(sim::ms(2));
  // Round-robin across priorities: both make progress.
  EXPECT_GT(net_.flow(0).bytes_delivered, 500'000);
  EXPECT_GT(net_.flow(1).bytes_delivered, 500'000);
}

// A gate that blocks data until opened (to exercise kick/wake machinery).
class BlockGate final : public TxGate {
 public:
  bool allowed(const Packet&, sim::TimePs, sim::TimePs*) override {
    return open_;
  }
  void on_transmit(const Packet&, sim::TimePs) override { ++transmitted_; }
  void open(EgressPort& port) {
    open_ = true;
    port.kick();
  }
  int transmitted() const { return transmitted_; }

 private:
  bool open_ = false;
  int transmitted_ = 0;
};

TEST_F(TwoHostFixture, GateBlocksUntilKicked) {
  auto gate = std::make_unique<BlockGate>();
  BlockGate* raw = gate.get();
  net_.host(h0_)->port(0).set_gate(std::move(gate));
  net_.create_flow(h0_, h1_, 0, 1500, 0);
  net_.run_until(sim::ms(1));
  EXPECT_EQ(net_.counters().data_packets_delivered, 0u);
  raw->open(net_.host(h0_)->port(0));
  net_.run_until(sim::ms(2));
  EXPECT_EQ(net_.counters().data_packets_delivered, 1u);
  EXPECT_EQ(raw->transmitted(), 1);
}

TEST_F(TwoHostFixture, HoldAndWaitProbe) {
  auto gate = std::make_unique<BlockGate>();
  BlockGate* raw = gate.get();
  net_.host(h0_)->port(0).set_gate(std::move(gate));
  net_.create_flow(h0_, h1_, 0, 1500, 0);
  net_.run_until(us(10));
  EXPECT_TRUE(net_.host(h0_)->port(0).probe_hold_and_wait(net_.sched().now()));
  raw->open(net_.host(h0_)->port(0));
  net_.run_until(sim::ms(1));
  EXPECT_FALSE(net_.host(h0_)->port(0).probe_hold_and_wait(net_.sched().now()));
}

// Per-priority gate: a class in `blocked` waits for a kick; every other
// class is paced to one packet start per 2.4 us (half the line rate for
// 1500 B packets) and names the instant it reopens, like GFC's rate limiter.
class ClassGate final : public TxGate {
 public:
  bool allowed(const Packet& pkt, sim::TimePs now,
               sim::TimePs* wake_at) override {
    if ((blocked & (1u << pkt.priority)) != 0) return false;
    if (now >= next_start_) return true;
    *wake_at = std::min(*wake_at, next_start_);
    return false;
  }
  void on_transmit(const Packet&, sim::TimePs now) override {
    next_start_ = now + us(2.4);
  }
  std::uint32_t blocked = 0;

 private:
  sim::TimePs next_start_ = 0;
};

TEST_F(TwoHostFixture, BlockedClassLeavesOtherClassFlowing) {
  auto gate = std::make_unique<ClassGate>();
  ClassGate* raw = gate.get();
  raw->blocked = 1u << 0;
  HostNode& h0 = *net_.host(h0_);
  EgressPort& nic = h0.port(0);
  nic.set_gate(std::move(gate));
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.create_flow(h0_, h1_, 3, Flow::kUnbounded, 0);
  // Priority 0 holds a packet at its closed gate throughout. The port is
  // either sending priority 3 or idle until priority 3's pacing wake, so it
  // is never in hold-and-wait.
  int idle_with_wake = 0;
  for (sim::TimePs t = us(100); t < us(120); t += us(0.1)) {
    net_.run_until(t);
    EXPECT_FALSE(nic.probe_hold_and_wait(t)) << "t=" << t;
    sim::TimePs wake = sim::kTimeNever;
    bool waiting = false;
    if (h0.poll_data(0, t, &wake, /*consume=*/false, &waiting) == nullptr &&
        wake != sim::kTimeNever)
      ++idle_with_wake;
  }
  EXPECT_GT(idle_with_wake, 0);
  EXPECT_EQ(net_.flow(0).bytes_delivered, 0);
  EXPECT_GT(net_.flow(1).bytes_delivered, 50'000);  // ~5 Gb/s for 120 us

  // Close priority 3 as well: once its in-flight packet is out, both
  // classes hold data behind a gate that names no wake.
  raw->blocked = (1u << 0) | (1u << 3);
  net_.run_until(us(130));
  EXPECT_TRUE(nic.probe_hold_and_wait(net_.sched().now()));

  raw->blocked = 0;
  nic.kick();
  net_.run_until(us(200));
  EXPECT_FALSE(nic.probe_hold_and_wait(net_.sched().now()));
  EXPECT_GT(net_.flow(0).bytes_delivered, 0);
}

TEST_F(TwoHostFixture, ControlFramesBypassBlockedData) {
  auto gate = std::make_unique<BlockGate>();
  net_.sw(s0_)->port(1).set_gate(std::move(gate));  // block S0 -> H1 data
  net_.create_flow(h0_, h1_, 0, 1500, 0);
  net_.run_until(us(50));
  EXPECT_EQ(net_.counters().data_packets_delivered, 0u);
  // Control frame jumps the blocked data queue.
  Packet* ctrl = net_.sw(s0_)->make_control(PacketType::kPfcPause);
  ctrl->fc_priority = 0;
  net_.sw(s0_)->send_control(1, ctrl);
  const auto before = net_.sw(s0_)->port(1).tx_control_frames();
  net_.run_until(us(60));
  EXPECT_EQ(net_.sw(s0_)->port(1).tx_control_frames(), before + 1);
}

// A packet is one cache line. Routed packets and link-control frames
// share payload storage, so a fresh packet of either kind must still read
// that kind's defaults — a control frame built on a pool packet must not
// see a data packet's flow id as its fc_value.
static_assert(sizeof(Packet) == 64);
static_assert(alignof(Packet) == 64);

/// Records every CNP its port starts transmitting; never blocks.
class CnpCapture final : public TxGate {
 public:
  bool allowed(const Packet&, sim::TimePs, sim::TimePs*) override {
    return true;
  }
  void on_transmit(const Packet& pkt, sim::TimePs) override {
    if (pkt.type == PacketType::kCnp) cnps.push_back(pkt);
  }
  std::vector<Packet> cnps;
};

void expect_control_defaults(const Packet& p) {
  EXPECT_TRUE(p.is_control());
  EXPECT_EQ(p.fc_value(), 0);
  EXPECT_EQ(p.fc_trigger_origin(), kInvalidNode);
  EXPECT_EQ(p.fc_trigger_seq(), 0u);
  EXPECT_EQ(p.fc_priority, 0);
  EXPECT_EQ(p.fc_stage, 0);
  EXPECT_EQ(p.size_bytes, kControlFrameBytes);
}

TEST_F(TwoHostFixture, FreshPacketsCarryTheirKindsDefaults) {
  // Data packets from the pool, fresh and recycled after carrying a flow.
  PacketPool pool;
  std::vector<Packet*> data;
  for (int i = 0; i < 3; ++i) data.push_back(pool.acquire());
  data[0]->set_flow(7, 99);
  pool.release(data[0]);
  data[0] = pool.acquire();
  for (const Packet* p : data) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    EXPECT_EQ(p->type, PacketType::kData);
    EXPECT_EQ(p->flow(), kInvalidFlow);
    EXPECT_EQ(p->path_salt(), 0u);
    EXPECT_EQ(p->ingress_port, -1);
    EXPECT_EQ(p->out_port, -1);
  }
  for (Packet* p : data) pool.release(p);

  // Control frames: make_control on a recycled packet.
  Packet* used = net_.pool().acquire();
  used->set_flow(5, 1234);
  net_.free_packet(used);
  Packet* ctrl = net_.sw(s0_)->make_control(PacketType::kPfcPause);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ctrl) % 64, 0u);
  expect_control_defaults(*ctrl);
  ctrl->set_fc_value(-7);
  ctrl->set_fc_trigger(s0_, 42);
  EXPECT_EQ(ctrl->fc_value(), -7);
  EXPECT_EQ(ctrl->fc_trigger_origin(), s0_);
  EXPECT_EQ(ctrl->fc_trigger_seq(), 42u);
  net_.free_packet(ctrl);

  // The DCQCN CNP: routed like data, carrying the notified flow and its
  // path salt.
  auto dcqcn = std::make_unique<cc::DcqcnModule>(net_, cc::DcqcnConfig{});
  cc::DcqcnModule* cc = dcqcn.get();
  net_.set_cc(std::move(dcqcn));
  Flow& flow = net_.create_flow(h0_, h1_, 0, 1500, us(100));
  auto gate = std::make_unique<CnpCapture>();
  CnpCapture* capture = gate.get();
  net_.host(h1_)->port(0).set_gate(std::move(gate));
  Packet marked;
  marked.ecn_ce = true;
  marked.set_flow(flow.id, flow.path_salt);
  cc->on_data_received(*net_.host(h1_), flow, marked);
  net_.run_until(us(5));
  ASSERT_EQ(capture->cnps.size(), 1u);
  const Packet& cnp = capture->cnps[0];
  EXPECT_FALSE(cnp.is_control());
  EXPECT_EQ(cnp.flow(), flow.id);
  EXPECT_EQ(cnp.path_salt(), flow.path_salt);
  EXPECT_EQ(cnp.src, h1_);
  EXPECT_EQ(cnp.dst, h0_);
  EXPECT_EQ(cnp.size_bytes, kControlFrameBytes);
  EXPECT_EQ(cnp.fc_priority, 0);
  EXPECT_EQ(cnp.fc_stage, 0);
  EXPECT_FALSE(cnp.ecn_ce);
}

TEST_F(TwoHostFixture, EcnThresholdMarking) {
  net_.sw(s0_)->set_ecn(EcnConfig{3000});
  // Two senders into one receiver port overload it and build a queue.
  NodeId h2 = net_.add_host("H2").id();
  net_.connect(h2, s0_, gbps(10), us(1));
  net_.sw(s0_)->set_route(h2, {2});
  int marked = 0;
  class Listener : public DeliveryListener {
   public:
    explicit Listener(int& marked) : marked_(marked) {}
    void on_delivery(const Packet& pkt, sim::TimePs) override {
      if (pkt.ecn_ce) ++marked_;
    }
    int& marked_;
  } listener(marked);
  net_.add_delivery_listener(&listener);
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.create_flow(h2, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(sim::ms(1));
  EXPECT_GT(marked, 10);
}

TEST(NetworkWiring, ConnectRecordsPeers) {
  Network net;
  const NodeId a = net.add_switch("A", 1000).id();
  const NodeId b = net.add_switch("B", 1000).id();
  const auto [pa, pb] = net.connect(a, b, gbps(40), us(2));
  EXPECT_EQ(net.node(a).peer(pa).node, b);
  EXPECT_EQ(net.node(a).peer(pa).port, pb);
  EXPECT_EQ(net.node(b).peer(pb).node, a);
  EXPECT_EQ(net.node(b).peer(pb).port, pa);
  EXPECT_EQ(net.node(a).port(pa).line_rate(), gbps(40));
}

}  // namespace
}  // namespace gfc::net
