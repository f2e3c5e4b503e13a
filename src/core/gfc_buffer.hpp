// Buffer-based GFC (Sec. 5.1): the PFC-style deployment.
//
// Downstream half reuses PFC's trigger machinery but with the multi-stage
// thresholds of Eq. (5): whenever the ingress queue length crosses into a
// different stage, a 64 B feedback frame carrying the stage id goes
// upstream. Upstream half maps stage -> R_k = C/2^k through a lookup and
// programs the per-priority Rate Limiter.
#pragma once

#include <array>
#include <vector>

#include "core/mapping.hpp"
#include "core/rate_limiter.hpp"

namespace gfc::core {

class GfcBufferModule final : public RateAdjuster {
 public:
  /// `min_message_gap` rate-limits feedback per (port, priority): a queue
  /// oscillating across one stage boundary (the intended steady state)
  /// would otherwise emit a frame per packet. The paper's bandwidth
  /// analysis assumes at most one message per tau (Sec 4.2); suppressed
  /// changes are coalesced into a trailing frame carrying the latest stage.
  explicit GfcBufferModule(const MultiStageMapping& mapping,
                           sim::TimePs min_message_gap = 0)
      : RateAdjuster(net::PacketType::kGfcStage),
        mapping_(mapping),
        min_gap_(min_message_gap) {}

  void on_ingress_enqueue(int port, int prio, const net::Packet& pkt) override;
  void on_ingress_dequeue(int port, int prio, const net::Packet& pkt) override;
  const char* name() const override { return "GFC-buffer"; }

  const MultiStageMapping& mapping() const { return mapping_; }

 protected:
  void on_attach() override;
  sim::Rate on_feedback(int port, const net::Packet& pkt) override;

 private:
  void check_stage(int port, int prio);

  void send_stage(int port, int prio);

  MultiStageMapping mapping_;
  sim::TimePs min_gap_;
  struct TxState {
    std::int8_t sent_stage = 0;   // last stage actually transmitted
    std::int8_t cur_stage = 0;    // current stage (may be unsent)
    sim::TimePs last_sent = -1;
    sim::EventId pending{};
  };
  std::vector<std::array<TxState, net::kNumPriorities>> stage_;  // downstream
};

}  // namespace gfc::core
