// Experiment configuration: link parameters plus the flow-control setup,
// with factory helpers that derive safe GFC parameters from the paper's
// bounds (Theorems 4.1 / 5.1, Sec. 5.4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "analyze/mode.hpp"
#include "core/mapping.hpp"
#include "core/params.hpp"
#include "fault/fault.hpp"
#include "net/switch.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace gfc::runner {

enum class FcKind {
  kNone,
  kPfc,
  kCbfc,
  kGfcBuffer,
  kGfcTime,
  kGfcConceptual,
  kDcfit,  // classic PFC + DCFIT detect-and-break (src/mech/dcfit.*)
};

/// DCFIT deadlock-break policy, applied at the switch whose trigger
/// returned (see src/mech/dcfit.hpp).
enum class DcfitBreak {
  kDropOne,  // drop the next-up packet of the deadlocked egress
  kBypass,   // temporarily open the paused gate (risks lossless violations)
};

// Inline so header-only consumers (the static analyzer) need no
// gfc_runner symbols.
inline const char* fc_name(FcKind kind) {
  switch (kind) {
    case FcKind::kNone: return "none";
    case FcKind::kPfc: return "PFC";
    case FcKind::kCbfc: return "CBFC";
    case FcKind::kGfcBuffer: return "GFC-buffer";
    case FcKind::kGfcTime: return "GFC-time";
    case FcKind::kGfcConceptual: return "GFC-conceptual";
    case FcKind::kDcfit: return "DCFIT";
  }
  return "?";
}

struct LinkConfig {
  sim::Rate rate = sim::gbps(10);
  sim::TimePs prop_delay = sim::us(1);
  std::int64_t mtu = 1500;
};

struct FcSetup {
  FcKind kind = FcKind::kNone;

  // PFC
  std::int64_t xoff = 0;
  std::int64_t xon = 0;

  // CBFC and time-based GFC: feedback period T.
  sim::TimePs period = 0;

  // GFC buffer-based: first threshold B_1; all: B_m.
  std::int64_t b1 = 0;
  std::int64_t bm = 0;

  // GFC time-based / conceptual: linear-mapping knee B_0.
  std::int64_t b0 = 0;

  // Self-healing knobs (0 = off = seed behavior; see the fault studies):
  /// PFC: 802.1Qbb pause expiry + downstream refresh cadence.
  sim::TimePs pfc_pause_timeout = 0;
  /// CBFC: extra full-credit re-advertisement period.
  sim::TimePs cbfc_sync_period = 0;

  // DCFIT (kind == kDcfit): detect-and-break on top of classic PFC.
  DcfitBreak dcfit_break = DcfitBreak::kDropOne;

  /// Route restriction request honored by the scenario builders (any base
  /// mechanism): replace the scenario's routing with the up*/down* CBD-free
  /// tables from mech::cbd_free_routes before the fabric installs it.
  bool cbd_free_routing = false;

  static FcSetup none() { return FcSetup{}; }
  static FcSetup pfc(std::int64_t xoff, std::int64_t xon) {
    FcSetup s;
    s.kind = FcKind::kPfc;
    s.xoff = xoff;
    s.xon = xon;
    return s;
  }
  static FcSetup cbfc(sim::TimePs period) {
    FcSetup s;
    s.kind = FcKind::kCbfc;
    s.period = period;
    return s;
  }
  static FcSetup gfc_buffer(std::int64_t b1, std::int64_t bm) {
    FcSetup s;
    s.kind = FcKind::kGfcBuffer;
    s.b1 = b1;
    s.bm = bm;
    return s;
  }
  static FcSetup gfc_time(std::int64_t b0, std::int64_t bm,
                          sim::TimePs period) {
    FcSetup s;
    s.kind = FcKind::kGfcTime;
    s.b0 = b0;
    s.bm = bm;
    s.period = period;
    return s;
  }
  static FcSetup gfc_conceptual(std::int64_t b0, std::int64_t bm) {
    FcSetup s;
    s.kind = FcKind::kGfcConceptual;
    s.b0 = b0;
    s.bm = bm;
    return s;
  }
  static FcSetup dcfit(std::int64_t xoff, std::int64_t xon,
                       DcfitBreak brk = DcfitBreak::kDropOne) {
    FcSetup s = pfc(xoff, xon);
    s.kind = FcKind::kDcfit;
    s.dcfit_break = brk;
    return s;
  }

  /// Derive paper-compliant parameters from the buffer size, link rate and
  /// worst-case tau: PFC gets XOFF = buffer - C*tau headroom (XON 2 MTU
  /// lower), CBFC the recommended 65535 B period, buffer-based GFC
  /// B_1 = B_m - 2*C*tau, time-based GFC B_0 from Theorem 5.1. DCFIT uses
  /// the PFC thresholds (its triggers ride on the PAUSE frames).
  /// The setup is always populated, also when the buffer is too small for
  /// the bound (B_1 <= 0 or B_0 <= 0): the static analyzer checks such
  /// deliberately out-of-bound setups against the bound, and the GFC
  /// mappings throw std::invalid_argument for any threshold no fabric can
  /// run. Use try_derive when sweeping buffers that may be too small.
  /// Defined inline so header-only consumers (the static analyzer, the
  /// src/mech registry) need no gfc_runner symbols.
  static FcSetup derive(FcKind kind, std::int64_t buffer, sim::Rate c,
                        sim::TimePs tau, std::int64_t mtu = 1500);

  /// derive(), or nullopt when the Theorem 4.1 / 5.1 / B_1 bound (with
  /// derive()'s packet-granularity slack) leaves no positive threshold —
  /// i.e. the buffer is too small to run that GFC variant safely at this
  /// rate and tau. PFC/CBFC/DCFIT/none are always derivable.
  static std::optional<FcSetup> try_derive(FcKind kind, std::int64_t buffer,
                                           sim::Rate c, sim::TimePs tau,
                                           std::int64_t mtu = 1500);
};

inline FcSetup FcSetup::derive(FcKind kind, std::int64_t buffer, sim::Rate c,
                               sim::TimePs tau, std::int64_t mtu) {
  switch (kind) {
    case FcKind::kNone:
      return none();
    case FcKind::kPfc:
    case FcKind::kDcfit: {
      // C*tau of in-flight absorption plus packet-granularity slack: one
      // MTU already serializing when the PAUSE is triggered, one more that
      // may start before it lands, and the pause frame itself.
      const std::int64_t headroom =
          core::bytes_over(c, tau) + 2 * mtu + 2 * net::kControlFrameBytes;
      const std::int64_t xoff =
          std::max<std::int64_t>(buffer - headroom, 2 * mtu + 1);
      FcSetup s = pfc(xoff, std::max<std::int64_t>(xoff - 2 * mtu, 1));
      s.kind = kind;
      return s;
    }
    case FcKind::kCbfc:
      return cbfc(core::cbfc_recommended_period(c));
    case FcKind::kGfcBuffer: {
      // The paper's bounds are fluid-model ("B_m can be set equal to B");
      // packets are not fluid, and the rate floor means a saturated queue
      // can creep past B_m slowly, so leave a few MTUs of slack.
      const std::int64_t bm = buffer - 4 * mtu;
      return gfc_buffer(core::b1_bound_buffer(bm, c, tau) - 2 * mtu, bm);
    }
    case FcKind::kGfcTime: {
      const sim::TimePs period = core::cbfc_recommended_period(c);
      const std::int64_t bm = buffer - 4 * mtu;
      return gfc_time(core::b0_bound_timebased(bm, c, tau, period) - 2 * mtu,
                      bm, period);
    }
    case FcKind::kGfcConceptual: {
      const std::int64_t bm = buffer - 4 * mtu;
      return gfc_conceptual(core::b0_bound_conceptual(bm, c, tau) - 2 * mtu,
                            bm);
    }
  }
  return none();
}

inline std::optional<FcSetup> FcSetup::try_derive(FcKind kind,
                                                  std::int64_t buffer,
                                                  sim::Rate c, sim::TimePs tau,
                                                  std::int64_t mtu) {
  const FcSetup s = derive(kind, buffer, c, tau, mtu);
  switch (kind) {
    case FcKind::kGfcBuffer:
      if (s.b1 <= 0) return std::nullopt;
      break;
    case FcKind::kGfcTime:
    case FcKind::kGfcConceptual:
      if (s.b0 <= 0) return std::nullopt;
      break;
    default:
      break;
  }
  return s;
}

struct ScenarioConfig {
  LinkConfig link;
  std::int64_t switch_buffer = 300 * 1000;  // per (ingress port, priority)
  /// Switch architecture. kOutputQueuedFifo is the literature-standard
  /// simulator model and the one under which the paper's deadlocks form;
  /// kCioqRoundRobin is a fair crossbar (see bench/ablation_arbitration).
  net::SwitchArch arch = net::SwitchArch::kOutputQueuedFifo;
  FcSetup fc;
  /// Control-frame processing latency t_r (also used to pad tau up to
  /// testbed-like values).
  sim::TimePs control_delay = sim::us(1);
  net::EcnConfig ecn;  // off unless a DCQCN study sets a threshold
  std::uint64_t seed = 1;

  /// Runtime control-frame fault injection; all-zero rates (the default)
  /// install no hook and leave every event identical to the seed.
  fault::FaultConfig fault;

  /// Binary event tracing (src/trace/). Disabled (the default) costs one
  /// null-pointer branch per instrumentation site.
  trace::TraceOptions trace;

  /// Static pre-flight analysis (src/analyze/), run when a Fabric installs
  /// its routing: kWarn reports deadlock risks on stderr, kFail throws
  /// analyze::PreflightError on an at-risk verdict. Off by default.
  /// Re-installs (mid-run reroutes after link flaps) re-analyze
  /// incrementally and re-issue the verdict — see Fabric::analysis().
  analyze::PreflightMode preflight = analyze::PreflightMode::kOff;

  /// Soundness oracle: keep the incremental analyzer's report current even
  /// under PreflightMode::kOff (no stderr, no throw) so the runner can
  /// cross-validate every runtime deadlock witness cycle against the
  /// static enumeration (runner::check_witness_cycle). Off by default.
  bool witness_check = false;

  /// Worst-case feedback latency for these parameters (Eq. 6 with this
  /// config's processing delay).
  sim::TimePs tau() const {
    return core::worst_case_tau(core::TauParams{
        link.rate, link.mtu, link.prop_delay, control_delay});
  }
};

}  // namespace gfc::runner
