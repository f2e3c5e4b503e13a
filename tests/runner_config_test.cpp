// Direct unit tests for the runner::FcSetup factory helpers: the named
// constructors, and derive()/try_derive()'s safe-parameter derivation from
// the Theorem 4.1 / 5.1 / B_1 bounds (Sec 5.4).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "net/packet.hpp"
#include "runner/config.hpp"
#include "runner/fabric.hpp"
#include "topo/builders.hpp"

namespace gfc::runner {
namespace {

constexpr std::int64_t kMtu = 1500;

struct Env {
  std::int64_t buffer = 300'000;
  sim::Rate c = sim::gbps(10);
  sim::TimePs tau = sim::us(25);
};

TEST(FcSetupFactories, NamedConstructorsFillTheRightFields) {
  const FcSetup p = FcSetup::pfc(280'000, 277'000);
  EXPECT_EQ(p.kind, FcKind::kPfc);
  EXPECT_EQ(p.xoff, 280'000);
  EXPECT_EQ(p.xon, 277'000);

  const FcSetup cb = FcSetup::cbfc(sim::us(52.4));
  EXPECT_EQ(cb.kind, FcKind::kCbfc);
  EXPECT_EQ(cb.period, sim::us(52.4));

  const FcSetup gb = FcSetup::gfc_buffer(281'000, 300'000);
  EXPECT_EQ(gb.kind, FcKind::kGfcBuffer);
  EXPECT_EQ(gb.b1, 281'000);
  EXPECT_EQ(gb.bm, 300'000);

  const FcSetup gt = FcSetup::gfc_time(159'000, 300'000, sim::us(52.4));
  EXPECT_EQ(gt.kind, FcKind::kGfcTime);
  EXPECT_EQ(gt.b0, 159'000);
  EXPECT_EQ(gt.bm, 300'000);
  EXPECT_EQ(gt.period, sim::us(52.4));

  const FcSetup gc = FcSetup::gfc_conceptual(100'000, 200'000);
  EXPECT_EQ(gc.kind, FcKind::kGfcConceptual);
  EXPECT_EQ(gc.b0, 100'000);
  EXPECT_EQ(gc.bm, 200'000);
}

TEST(FcSetupFactories, FcNames) {
  EXPECT_STREQ(fc_name(FcKind::kNone), "none");
  EXPECT_STREQ(fc_name(FcKind::kPfc), "PFC");
  EXPECT_STREQ(fc_name(FcKind::kCbfc), "CBFC");
  EXPECT_STREQ(fc_name(FcKind::kGfcBuffer), "GFC-buffer");
  EXPECT_STREQ(fc_name(FcKind::kGfcTime), "GFC-time");
  EXPECT_STREQ(fc_name(FcKind::kGfcConceptual), "GFC-conceptual");
}

TEST(FcSetupDerive, PfcHeadroomAbsorbsInFlightBytes) {
  const Env s;
  const FcSetup fc = FcSetup::derive(FcKind::kPfc, s.buffer, s.c, s.tau);
  ASSERT_EQ(fc.kind, FcKind::kPfc);
  // XOFF leaves at least C*tau of headroom below the buffer ceiling: every
  // byte in flight when the PAUSE triggers still fits (losslessness).
  EXPECT_LE(fc.xoff, s.buffer - core::bytes_over(s.c, s.tau));
  EXPECT_EQ(fc.xon, fc.xoff - 2 * kMtu);
  EXPECT_GT(fc.xon, 0);
}

TEST(FcSetupDerive, PfcTinyBufferClampsToValidThresholds) {
  // A buffer smaller than the headroom cannot make PFC unsafe-to-derive;
  // thresholds clamp to packet-granularity minimums instead.
  const FcSetup fc = FcSetup::derive(FcKind::kPfc, 10'000, sim::gbps(10),
                                     sim::us(25));
  EXPECT_GT(fc.xoff, fc.xon);
  EXPECT_GE(fc.xon, 1);
}

TEST(FcSetupDerive, CbfcUsesRecommendedPeriod) {
  const Env s;
  const FcSetup fc = FcSetup::derive(FcKind::kCbfc, s.buffer, s.c, s.tau);
  EXPECT_EQ(fc.period, core::cbfc_recommended_period(s.c));
}

TEST(FcSetupDerive, GfcBufferSatisfiesB1Bound) {
  const Env s;
  const FcSetup fc = FcSetup::derive(FcKind::kGfcBuffer, s.buffer, s.c, s.tau);
  ASSERT_EQ(fc.kind, FcKind::kGfcBuffer);
  EXPECT_LT(fc.bm, s.buffer);  // fluid-model slack below the hard buffer
  EXPECT_GT(fc.b1, 0);
  // The Sec 4.2 constraint proper: B_1 <= B_m - 2*C*tau.
  EXPECT_LE(fc.b1, core::b1_bound_buffer(fc.bm, s.c, s.tau));
}

TEST(FcSetupDerive, GfcTimeSatisfiesTheorem51) {
  const Env s;
  const FcSetup fc = FcSetup::derive(FcKind::kGfcTime, s.buffer, s.c, s.tau);
  ASSERT_EQ(fc.kind, FcKind::kGfcTime);
  EXPECT_EQ(fc.period, core::cbfc_recommended_period(s.c));
  EXPECT_GT(fc.b0, 0);
  // Theorem 5.1: B_0 <= B_m - (sqrt(tau/T)+1)^2 * C * T.
  EXPECT_LE(fc.b0, core::b0_bound_timebased(fc.bm, s.c, s.tau, fc.period));
}

TEST(FcSetupDerive, GfcConceptualSatisfiesTheorem41) {
  const Env s;
  const FcSetup fc =
      FcSetup::derive(FcKind::kGfcConceptual, s.buffer, s.c, s.tau);
  ASSERT_EQ(fc.kind, FcKind::kGfcConceptual);
  EXPECT_GT(fc.b0, 0);
  // Theorem 4.1: B_0 <= B_m - 4*C*tau.
  EXPECT_LE(fc.b0, core::b0_bound_conceptual(fc.bm, s.c, s.tau));
}

TEST(FcSetupDerive, FabricRejectsGfcTimeSetupWithNegativeB0) {
  // At 100 KB no B_0 >= 0 meets Theorem 5.1: try_derive refuses, and
  // derive's setup carries a negative one. Building a fabric from it must
  // fail in every build type, not simulate a mapping outside its domain.
  ScenarioConfig cfg;
  cfg.switch_buffer = 100'000;
  ASSERT_FALSE(FcSetup::try_derive(FcKind::kGfcTime, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau(), cfg.link.mtu));
  const FcSetup setup = FcSetup::derive(FcKind::kGfcTime, cfg.switch_buffer,
                                        cfg.link.rate, cfg.tau(), cfg.link.mtu);
  ASSERT_LT(setup.b0, 0);
  cfg.fc = setup;
  topo::Topology topo;
  topo::build_dumbbell(topo, 2);
  try {
    Fabric fabric(topo, cfg);
    FAIL() << "fabric built with B_0 = " << setup.b0;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("B_0 = " + std::to_string(setup.b0)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("B_m = " + std::to_string(setup.bm)),
              std::string::npos)
        << what;
  }
}

TEST(FcSetupTryDerive, AgreesWithDeriveWhenFeasible) {
  const Env s;
  for (const FcKind kind : {FcKind::kNone, FcKind::kPfc, FcKind::kCbfc,
                            FcKind::kGfcBuffer, FcKind::kGfcTime,
                            FcKind::kGfcConceptual}) {
    const auto fc = FcSetup::try_derive(kind, s.buffer, s.c, s.tau);
    ASSERT_TRUE(fc.has_value()) << fc_name(kind);
    const FcSetup direct = FcSetup::derive(kind, s.buffer, s.c, s.tau);
    EXPECT_EQ(fc->kind, direct.kind);
    EXPECT_EQ(fc->xoff, direct.xoff);
    EXPECT_EQ(fc->b1, direct.b1);
    EXPECT_EQ(fc->b0, direct.b0);
    EXPECT_EQ(fc->bm, direct.bm);
    EXPECT_EQ(fc->period, direct.period);
  }
}

TEST(FcSetupTryDerive, GfcInfeasibleWhenBufferBelowBound) {
  // 20 KB at 10G with tau = 25 us: 2*C*tau alone is ~62 KB, so no GFC
  // variant has a positive threshold; PFC/CBFC always derive (they clamp).
  const std::int64_t buffer = 20'000;
  const sim::Rate c = sim::gbps(10);
  const sim::TimePs tau = sim::us(25);
  EXPECT_FALSE(FcSetup::try_derive(FcKind::kGfcBuffer, buffer, c, tau));
  EXPECT_FALSE(FcSetup::try_derive(FcKind::kGfcTime, buffer, c, tau));
  EXPECT_FALSE(FcSetup::try_derive(FcKind::kGfcConceptual, buffer, c, tau));
  EXPECT_TRUE(FcSetup::try_derive(FcKind::kPfc, buffer, c, tau));
  EXPECT_TRUE(FcSetup::try_derive(FcKind::kCbfc, buffer, c, tau));
  EXPECT_TRUE(FcSetup::try_derive(FcKind::kNone, buffer, c, tau));
}

TEST(FcSetupTryDerive, ConceptualNeedsMoreBufferThanBufferBased) {
  // Theorem 4.1 reserves 4*C*tau vs the B_1 constraint's 2*C*tau, so there
  // is a buffer band where buffer-based GFC is derivable and conceptual
  // GFC is not.
  const sim::Rate c = sim::gbps(10);
  const sim::TimePs tau = sim::us(25);
  const std::int64_t band = 90'000;  // 2*C*tau ~ 62 KB < band < 4*C*tau+slack
  EXPECT_TRUE(FcSetup::try_derive(FcKind::kGfcBuffer, band, c, tau));
  EXPECT_FALSE(FcSetup::try_derive(FcKind::kGfcConceptual, band, c, tau));
}

TEST(ScenarioConfig, TauMatchesEq6) {
  ScenarioConfig cfg;
  const sim::TimePs expected = core::worst_case_tau(core::TauParams{
      cfg.link.rate, cfg.link.mtu, cfg.link.prop_delay, cfg.control_delay});
  EXPECT_EQ(cfg.tau(), expected);
}

}  // namespace
}  // namespace gfc::runner
