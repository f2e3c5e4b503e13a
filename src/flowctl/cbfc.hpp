// Credit-Based Flow Control (InfiniBand-style), the time-based baseline.
//
// Downstream half: per (port, priority) it tracks cumulative forwarded
// 64-byte blocks and periodically (every `period`) advertises
// FCCL = forwarded_blocks + buffer_blocks.
// Upstream half: per priority it tracks FCTBS (blocks sent) and may start a
// packet only while FCTBS + packet_blocks <= FCCL — running out of credits
// is exactly the paper's hold-and-wait state.
#pragma once

#include <memory>

#include "flowctl/flow_control.hpp"

namespace gfc::flowctl {

struct CbfcConfig {
  sim::TimePs period = 0;           // feedback period T
  std::int64_t buffer_bytes = 0;    // advertised per (port, prio) credit pool

  /// Optional credit-sync cadence (0 = off): an extra full FCCL
  /// re-advertisement every sync_period. CBFC's primary advertisements are
  /// already periodic *and cumulative*, so a single lost credit frame heals
  /// within one `period` on its own; the sync timer exists to bound repair
  /// under correlated loss (a flapping link dropping several consecutive
  /// advertisements) and to make the repair cadence an explicit knob in the
  /// fault studies. Off by default; zero keeps seed behavior bit-for-bit.
  sim::TimePs sync_period = 0;

  static constexpr std::int64_t kBlockBytes = 64;  // IB credit granularity

  std::int64_t buffer_blocks() const { return buffer_bytes / kBlockBytes; }
  std::int64_t blocks_for(std::int64_t bytes) const {
    return (bytes + kBlockBytes - 1) / kBlockBytes;
  }
};

class CbfcModule final : public LinkFcBase {
 public:
  explicit CbfcModule(const CbfcConfig& cfg) : cfg_(cfg) {}

  void on_ingress_dequeue(int port, int prio, const Packet& pkt) override;
  void on_control(int port, const Packet& pkt) override;
  const char* name() const override { return "CBFC"; }

  const CbfcConfig& config() const { return cfg_; }

 protected:
  void on_attach() override;

 private:
  class CreditGate final : public net::TxGate {
   public:
    CreditGate(const CbfcConfig& cfg, net::EgressPort& port)
        : cfg_(cfg), port_(port) {
      fccl_.fill(cfg.buffer_blocks());  // initial advertisement at link init
    }
    bool allowed(const Packet& pkt, sim::TimePs, sim::TimePs*) override {
      const auto p = static_cast<std::size_t>(pkt.priority);
      if (fctbs_[p] + cfg_.blocks_for(pkt.size_bytes) <= fccl_[p]) return true;
      if (!exhausted_[p]) {
        // Edge-triggered: first blocked attempt since credits last grew.
        exhausted_[p] = true;
        port_.owner().network().trace_event(
            trace::EventType::kCreditExhausted, port_.owner().id(),
            port_.index(), pkt.priority, pkt.id, fccl_[p] - fctbs_[p]);
      }
      return false;
    }
    void on_transmit(const Packet& pkt, sim::TimePs) override {
      fctbs_[pkt.priority] += cfg_.blocks_for(pkt.size_bytes);
    }
    void update_fccl(int prio, std::int64_t fccl) {
      auto& cur = fccl_[static_cast<std::size_t>(prio)];
      if (fccl > cur) {
        cur = fccl;  // FCCL is cumulative, never regresses
        exhausted_[static_cast<std::size_t>(prio)] = false;
      }
    }

   private:
    const CbfcConfig cfg_;
    net::EgressPort& port_;
    std::array<std::int64_t, kNumPriorities> fccl_{};
    std::array<std::int64_t, kNumPriorities> fctbs_{};
    std::array<bool, kNumPriorities> exhausted_{};
  };

  void send_credits(int port);
  void arm_timer(int port);
  void arm_sync(int port);

  CbfcConfig cfg_;
  /// Downstream: cumulative forwarded blocks per (port, prio).
  std::vector<std::array<std::int64_t, kNumPriorities>> fwd_blocks_;
  std::vector<CreditGate*> gates_;  // null on ports facing hosts
};

}  // namespace gfc::flowctl
