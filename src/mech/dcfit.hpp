// DCFIT: in-data-plane PFC deadlock detection and break (Wu & Ng,
// "Detecting and Resolving PFC Deadlocks with ITSY Entirely in the Data
// Plane", arXiv 2009.13446) — the detect-and-break baseline GFC competes
// against.
//
// The mechanism rides on classic PFC (indefinite pauses, edge-triggered
// XOFF/XON) and adds an *initial trigger* to every PAUSE frame:
//
//  * Originate — when a switch pauses an upstream and none of the egresses
//    its congested ingress waits on is itself paused, the pause is the
//    chain's initial trigger: the frame carries (origin = this switch,
//    seq = fresh node-local sequence number).
//  * Propagate — if the congested ingress waits on an egress that *is*
//    paused by the downstream, the pause is a consequence of that pause:
//    the frame forwards the trigger recorded from the downstream's PAUSE.
//  * Recirculate — every outstanding pause is re-sent with the *current*
//    trigger every kTriggerPeriod (the DCFIT module's own refresh; the
//    gates still hold indefinitely, so classic PFC semantics — and its
//    deadlocks — are preserved). In a wedged cycle of N switches the
//    triggers rotate one hop per refresh.
//  * Detect — a received PAUSE whose trigger origin is this switch, with
//    that origin sequence still live (the originating pause still
//    standing), proves the pause chain closed a cycle: deadlock. A
//    returned trigger whose origin entry has since been resumed is counted
//    as a false positive and ignored.
//  * Break — configurable policy at the detecting switch: kDropOne drops
//    the single next-up packet of the deadlocked egress (repeats on each
//    detection until the cycle unwinds); kBypass force-opens the paused
//    gate until the downstream's next refresh re-closes it, trading
//    possible lossless violations for zero packet loss.
//
// Detection latency is now - the origin entry's timestamp: the time from
// the first PAUSE of the chain to the trigger's round trip home.
#pragma once

#include <array>
#include <vector>

#include "flowctl/pfc.hpp"
#include "runner/config.hpp"

namespace gfc::mech {

struct DcfitConfig {
  flowctl::PfcConfig pfc;
  runner::DcfitBreak break_policy = runner::DcfitBreak::kDropOne;
};

class DcfitModule final : public flowctl::PfcModule {
 public:
  /// Trigger-refresh period (re-send cadence of outstanding pauses):
  /// recirculates triggers around a wedged PFC dependency cycle until one
  /// returns home.
  static constexpr sim::TimePs kTriggerPeriod = sim::us(20);

  explicit DcfitModule(const DcfitConfig& cfg)
      : PfcModule(cfg.pfc), dcfg_(cfg) {}

  const char* name() const override { return "DCFIT"; }

  // --- per-module counters (aggregated into RunSummary) -------------------
  int detections() const { return detections_; }
  int false_positives() const { return false_positives_; }
  std::uint64_t packets_sacrificed() const { return packets_sacrificed_; }
  int bypasses() const { return bypasses_; }
  /// Latency of the first confirmed detection (origin pause -> trigger
  /// return), -1 if none.
  sim::TimePs first_detection_latency() const { return first_latency_; }
  /// Absolute time of the most recent break action, -1 if none.
  sim::TimePs last_break_at() const { return last_break_at_; }

 protected:
  void on_attach() override;
  void decorate_pause(net::Packet& frame, int port, int prio) override;
  void on_pause_state(int port, int prio, bool pause) override;
  void on_pause_rx(int port, const net::Packet& pkt) override;
  void on_resume_rx(int port, const net::Packet& pkt) override;

 private:
  /// Trigger this node originated when pausing ingress (port, prio).
  struct OriginState {
    bool active = false;
    std::uint32_t seq = 0;
    sim::TimePs originated_at = 0;
  };
  /// Trigger recorded from the downstream's last PAUSE of egress
  /// (port, prio); origin == kInvalidNode when none.
  struct IncomingTrigger {
    net::NodeId origin = net::kInvalidNode;
    std::uint32_t seq = 0;
  };

  /// Every this-many trigger refreshes of one outstanding pause, skip the
  /// propagate step and originate fresh — the liveness backstop against
  /// cycles saturated with stale (dead-origin) triggers.
  static constexpr std::uint8_t kReoriginateEvery = 64;

  /// The trigger a PAUSE of ingress (port, prio) should carry *now*:
  /// propagate the paused-egress trigger the ingress's head packets wait
  /// on (when allowed), else (re-)originate. Writes the choice into
  /// `frame`.
  void attach_trigger(net::Packet& frame, int port, int prio,
                      bool allow_propagate = true);
  /// True when `seq` is a trigger this node originated and whose pause is
  /// still standing.
  bool origin_seq_live(int prio, std::uint32_t seq) const;
  void arm_trigger_refresh(int port, int prio);
  void break_deadlock(int egress, int prio);

  DcfitConfig dcfg_;
  std::vector<std::array<OriginState, net::kNumPriorities>> origin_;
  std::vector<std::array<IncomingTrigger, net::kNumPriorities>> incoming_;
  std::vector<std::array<sim::EventId, net::kNumPriorities>> refresh_;
  std::vector<std::array<std::uint8_t, net::kNumPriorities>> refresh_count_;
  /// Node-local trigger sequence; 32 bits, as the PAUSE frame carries it.
  std::uint32_t next_seq_ = 0;
  std::vector<int> head_targets_;  // scratch for attach_trigger

  int detections_ = 0;
  int false_positives_ = 0;
  std::uint64_t packets_sacrificed_ = 0;
  int bypasses_ = 0;
  sim::TimePs first_latency_ = -1;
  sim::TimePs last_break_at_ = -1;
};

/// Network-wide DCFIT accounting, summed over every attached DcfitModule
/// (all-zero when the fabric runs another mechanism).
struct DcfitTotals {
  int detections = 0;
  int false_positives = 0;
  std::uint64_t packets_sacrificed = 0;
  int bypasses = 0;
  sim::TimePs first_detection_latency = -1;  // min over modules
  sim::TimePs last_break_at = -1;            // max over modules
};
DcfitTotals collect_dcfit(net::Network& net);

}  // namespace gfc::mech
