// Priority Flow Control (IEEE 802.1Qbb), the CEE baseline.
//
// Downstream half: when the (ingress port, priority) occupancy reaches XOFF
// a PAUSE frame is sent upstream; when it drains to XON a RESUME follows.
// Upstream half: a paused priority cannot start new data transmissions.
// The buffer above XOFF is the headroom that absorbs in-flight packets; it
// must cover C * tau or the lossless-violation counter will fire.
//
// Optional pause expiry (pause_timeout > 0) models the 802.1Qbb pause
// quanta: a received PAUSE only holds for the timeout and the downstream
// refreshes outstanding pauses every timeout/2. This makes PFC self-healing
// under control-frame loss — a lost RESUME un-wedges when the quanta run
// out, a lost PAUSE is re-sent by the refresh — at the cost of the classic
// edge-triggered hold-forever semantics (and of headroom: an expired pause
// that should still stand readmits traffic into a full buffer). Off by
// default; zero-timeout behavior is bit-for-bit the seed's.
#pragma once

#include <memory>

#include "flowctl/flow_control.hpp"

namespace gfc::flowctl {

struct PfcConfig {
  std::int64_t xoff_bytes = 0;
  std::int64_t xon_bytes = 0;  // must be < xoff_bytes

  /// 802.1Qbb-style pause expiry; 0 = classic indefinite pauses.
  sim::TimePs pause_timeout = 0;
};

class PfcModule : public LinkFcBase {
 public:
  explicit PfcModule(const PfcConfig& cfg) : cfg_(cfg) {}

  void on_ingress_enqueue(int port, int prio, const Packet& pkt) override;
  void on_ingress_dequeue(int port, int prio, const Packet& pkt) override;
  void on_control(int port, const Packet& pkt) override;
  const char* name() const override { return "PFC"; }

  const PfcConfig& config() const { return cfg_; }
  /// Downstream view: is this (port, prio) currently holding the upstream
  /// paused? (exposed for tests and the deadlock wait-for graph)
  bool pause_sent(int port, int prio) const {
    return pause_sent_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  }
  /// Upstream view: is this port's gate currently blocking `prio`?
  bool gate_paused(int port, int prio);

 protected:
  void on_attach() override;

  // --- subclass hooks (DCFIT, src/mech/dcfit.*) ---------------------------
  /// An outgoing PAUSE frame is about to be sent on `port` for `prio`
  /// (both the XOFF edge and refresh re-sends); decorate its payload.
  virtual void decorate_pause(Packet&, int /*port*/, int /*prio*/) {}
  /// The downstream pause state for (port, prio) just changed.
  virtual void on_pause_state(int /*port*/, int /*prio*/, bool /*pause*/) {}
  /// A PAUSE / RESUME frame was received and applied to the gate.
  virtual void on_pause_rx(int /*port*/, const Packet&) {}
  virtual void on_resume_rx(int /*port*/, const Packet&) {}

  /// Emit the PAUSE (pause=true) or RESUME edge on `port` for `prio` and
  /// record the new downstream state.
  void send_pause_state(int port, int prio, bool pause);
  /// Force-open this port's gate for `prio` (DCFIT temporary bypass); the
  /// downstream's next PAUSE re-closes it.
  void force_unpause(int port, int prio);

 private:
  /// Upstream-side gate: blocks paused priorities until the pause expires
  /// (kTimeNever = indefinite, the classic edge-triggered mode).
  class PauseGate final : public net::TxGate {
   public:
    bool allowed(const Packet& pkt, sim::TimePs now, sim::TimePs* wake_at) override {
      const sim::TimePs until = paused_until_[pkt.priority];
      if (now >= until) return true;
      // A finite pause is its own wake-up (the port self-heals); an
      // indefinite one waits for the RESUME kick.
      if (until != sim::kTimeNever && until < *wake_at) *wake_at = until;
      return false;
    }
    void on_transmit(const Packet&, sim::TimePs) override {}
    void set_paused_until(int prio, sim::TimePs until) {
      paused_until_[static_cast<std::size_t>(prio)] = until;
    }
    bool paused(int prio, sim::TimePs now) const {
      return now < paused_until_[static_cast<std::size_t>(prio)];
    }

   private:
    std::array<sim::TimePs, kNumPriorities> paused_until_{};  // 0 = open
  };

  void arm_refresh(int port, int prio);

  PfcConfig cfg_;
  std::vector<std::array<bool, kNumPriorities>> pause_sent_;
  /// Pending pause-refresh timers (only armed when pause_timeout > 0).
  std::vector<std::array<sim::EventId, kNumPriorities>> refresh_;
  std::vector<PauseGate*> gates_;  // owned by the egress ports
};

}  // namespace gfc::flowctl
