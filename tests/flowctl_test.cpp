// Unit tests for the PFC and CBFC baselines on small hand-built networks.
#include <gtest/gtest.h>

#include "flowctl/cbfc.hpp"
#include "flowctl/pfc.hpp"
#include "net/network.hpp"
#include "runner/scenarios.hpp"

namespace gfc::flowctl {
namespace {

using net::Flow;
using net::Network;
using net::NodeId;
using sim::gbps;
using sim::ms;
using sim::us;

// H0 -- S0 -- S1 -- H1 line; congestion is created by blocking S1's egress
// to H1 with a test gate, so S1's ingress from S0 fills deterministically.
class LineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    h0_ = net_.add_host("H0").id();
    h1_ = net_.add_host("H1").id();
    s0_ = net_.add_switch("S0", kBuffer).id();
    s1_ = net_.add_switch("S1", kBuffer).id();
    net_.connect(h0_, s0_, gbps(10), us(1));   // H0: port 0 / S0: port 0
    net_.connect(s0_, s1_, gbps(10), us(1));   // S0: port 1 / S1: port 0
    net_.connect(s1_, h1_, gbps(10), us(1));   // S1: port 1 / H1: port 0
    net_.sw(s0_)->set_route(h1_, {1});
    net_.sw(s1_)->set_route(h1_, {1});
    net_.sw(s0_)->set_route(h0_, {0});
    net_.sw(s1_)->set_route(h0_, {0});
  }

  void attach(std::unique_ptr<net::FcModule> (*make)()) {
    for (NodeId id : {h0_, h1_, s0_, s1_}) net_.node(id).set_fc(make());
  }

  static constexpr std::int64_t kBuffer = 100'000;
  Network net_;
  NodeId h0_, h1_, s0_, s1_;
};

class StuckGate final : public net::TxGate {
 public:
  bool allowed(const net::Packet&, sim::TimePs, sim::TimePs*) override {
    return false;
  }
  void on_transmit(const net::Packet&, sim::TimePs) override {}
};

std::unique_ptr<net::FcModule> make_pfc() {
  return std::make_unique<PfcModule>(PfcConfig{80'000, 77'000});
}
std::unique_ptr<net::FcModule> make_cbfc() {
  CbfcConfig cfg;
  cfg.period = us(10);
  cfg.buffer_bytes = 100'000;
  return std::make_unique<CbfcModule>(cfg);
}

TEST_F(LineFixture, PfcPausesAtXoffAndResumesAtXon) {
  attach(&make_pfc);
  net_.sw(s1_)->port(1).set_gate(std::make_unique<StuckGate>());
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(2));
  auto* fc1 = dynamic_cast<PfcModule*>(net_.sw(s1_)->fc());
  ASSERT_NE(fc1, nullptr);
  // S1 ingress port 0 (from S0) exceeded XOFF and paused upstream.
  EXPECT_TRUE(fc1->pause_sent(0, 0));
  const auto q = net_.sw(s1_)->ingress_bytes(0, 0);
  EXPECT_GE(q, 80'000);
  EXPECT_LE(q, kBuffer);  // headroom absorbed the in-flight packets
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
  // Unstick the egress: queue drains below XON and the upstream resumes.
  net_.sw(s1_)->port(1).set_gate(std::make_unique<net::OpenGate>());
  net_.sw(s1_)->port(1).kick();
  net_.run_until(ms(4));
  EXPECT_FALSE(fc1->pause_sent(0, 0));
  EXPECT_GT(net_.counters().data_bytes_delivered, 0);
}

TEST_F(LineFixture, PfcLosslessUnderFullLoad) {
  attach(&make_pfc);
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(5));
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
  // No congestion: full line rate passes through.
  EXPECT_NEAR(static_cast<double>(net_.counters().data_bytes_delivered) * 8 /
                  sim::to_seconds(ms(5)) / 1e9,
              10.0, 0.2);
}

TEST_F(LineFixture, PfcPerPriorityIsolation) {
  attach(&make_pfc);
  net_.sw(s1_)->port(1).set_gate(std::make_unique<StuckGate>());
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(2));
  auto* fc1 = dynamic_cast<PfcModule*>(net_.sw(s1_)->fc());
  EXPECT_TRUE(fc1->pause_sent(0, 0));
  EXPECT_FALSE(fc1->pause_sent(0, 3));  // other priorities unaffected
}

TEST_F(LineFixture, CbfcStopsWhenCreditsExhausted) {
  attach(&make_cbfc);
  net_.sw(s1_)->port(1).set_gate(std::make_unique<StuckGate>());
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(3));
  auto* fc0 = dynamic_cast<CbfcModule*>(net_.sw(s0_)->fc());
  ASSERT_NE(fc0, nullptr);
  // S0's egress to S1 (port 1) ran out of credits: fewer than one MTU left.
  EXPECT_LT(fc0->available_credits(1, 0), (1500 + 63) / 64);
  // Ingress occupancy bounded by the advertised credit pool.
  EXPECT_LE(net_.sw(s1_)->ingress_bytes(0, 0), 100'000);
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
  // Hold-and-wait: the upstream egress is stuck with no wake time.
  EXPECT_TRUE(net_.sw(s0_)->port(1).probe_hold_and_wait(net_.sched().now()));
}

TEST_F(LineFixture, CbfcCreditsReplenishAfterDrain) {
  attach(&make_cbfc);
  net_.sw(s1_)->port(1).set_gate(std::make_unique<StuckGate>());
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(3));
  net_.sw(s1_)->port(1).set_gate(std::make_unique<net::OpenGate>());
  net_.sw(s1_)->port(1).kick();
  const auto delivered_before = net_.counters().data_bytes_delivered;
  net_.run_until(ms(6));
  EXPECT_GT(net_.counters().data_bytes_delivered, delivered_before + 1'000'000);
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
}

TEST_F(LineFixture, CbfcLosslessUnderFullLoad) {
  attach(&make_cbfc);
  net_.create_flow(h0_, h1_, 0, Flow::kUnbounded, 0);
  net_.run_until(ms(5));
  EXPECT_EQ(net_.counters().lossless_violations, 0u);
  EXPECT_NEAR(static_cast<double>(net_.counters().data_bytes_delivered) * 8 /
                  sim::to_seconds(ms(5)) / 1e9,
              10.0, 0.3);
}

TEST(CbfcConfig, BlockMath) {
  CbfcConfig cfg;
  cfg.buffer_bytes = 100'000;
  EXPECT_EQ(cfg.buffer_blocks(), 1562);
  EXPECT_EQ(cfg.blocks_for(64), 1);
  EXPECT_EQ(cfg.blocks_for(65), 2);
  EXPECT_EQ(cfg.blocks_for(1500), 24);
}

TEST(PfcConfig, ForBufferUsesTwoMtuGap) {
  const PfcConfig cfg = PfcConfig::for_buffer(80'000);
  EXPECT_EQ(cfg.xoff_bytes, 80'000);
  EXPECT_EQ(cfg.xon_bytes, 77'000);
}

// Parameterized lossless sweep: every mechanism must keep the invariant
// across buffer sizes in a 2-to-1 incast (persistent congestion).
// Time-based GFC at 100 KB runs outside Theorem 5.1's bound: no b0 >= 0
// satisfies it, so the case uses the smallest threshold LinearMapping
// accepts (b0 = 0) and checks that the incast stays lossless anyway.
class LosslessSweep
    : public ::testing::TestWithParam<std::tuple<runner::FcKind, std::int64_t>> {};

TEST_P(LosslessSweep, NoViolationsUnderIncast) {
  const auto [kind, buffer] = GetParam();
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  auto [setup, feasible] = runner::detail::derive_fc(
      kind, buffer, cfg.link.rate, cfg.tau(), cfg.link.mtu);
  const bool outside_bound =
      kind == runner::FcKind::kGfcTime && buffer == 100'000;
  EXPECT_EQ(feasible, !outside_bound);
  if (outside_bound) {
    EXPECT_LT(setup.b0, 0);
    setup.b0 = 0;
  }
  cfg.fc = setup;
  auto s = runner::make_incast(cfg, 2);
  s.fabric->net().run_until(ms(10));
  EXPECT_EQ(s.fabric->net().counters().lossless_violations, 0u);
  EXPECT_GT(s.fabric->net().counters().data_bytes_delivered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, LosslessSweep,
    ::testing::Combine(::testing::Values(runner::FcKind::kPfc,
                                         runner::FcKind::kCbfc,
                                         runner::FcKind::kGfcBuffer,
                                         runner::FcKind::kGfcTime,
                                         runner::FcKind::kGfcConceptual),
                       ::testing::Values(100'000, 300'000, 1'000'000)),
    [](const auto& info) {
      std::string name = std::string(runner::fc_name(std::get<0>(info.param))) +
                         "_" + std::to_string(std::get<1>(info.param) / 1000) +
                         "KB";
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace gfc::flowctl
