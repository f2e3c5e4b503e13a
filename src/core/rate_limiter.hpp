// The paper's per-queue Rate Limiter (Sec. 5.3), the egress-port gate
// that GFC variants install upstream, and the Rate Adjuster module base
// that installs and programs those gates.
//
// Register semantics from the paper: after a packet whose transmission took
// R_I = L/C, the countdown R_c = (C - R_r)/R_r * R_I must elapse before the
// next packet — i.e. packet *starts* are spaced L/R_r apart. We keep the
// start timestamp and evaluate the spacing against the *current* rate, so a
// rate increase takes effect immediately instead of waiting out a stale
// countdown.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "flowctl/flow_control.hpp"
#include "net/network.hpp"
#include "net/port.hpp"
#include "sim/time.hpp"

namespace gfc::core {

class RateLimiter {
 public:
  RateLimiter() = default;
  explicit RateLimiter(sim::Rate initial_rate) : rate_(initial_rate) {}

  void set_rate(sim::Rate r) {
    rate_ = r;
    recompute();
  }
  sim::Rate rate() const { return rate_; }

  /// Earliest instant the next packet may start. Cached: the spacing only
  /// changes on transmit or rate update, while the gate re-evaluates it on
  /// every poll — the poll path must not pay the tx_time division.
  sim::TimePs next_allowed() const { return next_allowed_; }

  bool allowed(sim::TimePs now) const { return now >= next_allowed_; }

  /// A packet of `bytes` started transmission at `now`.
  void on_transmit(sim::TimePs now, std::int64_t bytes) {
    last_start_ = now;
    last_bytes_ = bytes;
    recompute();
  }

 private:
  void recompute() {
    if (last_bytes_ == 0)
      next_allowed_ = 0;
    else if (rate_.is_zero())
      next_allowed_ = sim::kTimeNever;
    else
      next_allowed_ = last_start_ + sim::tx_time(rate_, last_bytes_);
  }

  sim::Rate rate_{};
  sim::TimePs last_start_ = 0;
  std::int64_t last_bytes_ = 0;  // 0 until the first packet
  sim::TimePs next_allowed_ = 0;
};

/// TxGate with one RateLimiter per priority; all GFC variants share it.
class RateGate final : public net::TxGate {
 public:
  explicit RateGate(net::EgressPort& port) : port_(&port) {
    for (auto& lim : limiters_) lim.set_rate(port.line_rate());
  }

  bool allowed(const net::Packet& pkt, sim::TimePs now,
               sim::TimePs* wake_at) override {
    const RateLimiter& lim = limiters_[pkt.priority];
    if (lim.allowed(now)) return true;
    const sim::TimePs t = lim.next_allowed();
    if (t < *wake_at) *wake_at = t;
    return false;
  }

  void on_transmit(const net::Packet& pkt, sim::TimePs now) override {
    limiters_[pkt.priority].on_transmit(now, pkt.size_bytes);
  }

  /// Rate Adjuster entry point: update the assigned rate and re-evaluate.
  void set_rate(int prio, sim::Rate r) {
    RateLimiter& lim = limiters_[static_cast<std::size_t>(prio)];
    if (lim.rate() != r) {
      lim.set_rate(r);
      port_->owner().network().trace_event(trace::EventType::kRateSet,
                                           port_->owner().id(), port_->index(),
                                           prio, 0, r.bps);
    }
    port_->kick();
  }

  sim::Rate rate(int prio) const {
    return limiters_[static_cast<std::size_t>(prio)].rate();
  }

 private:
  net::EgressPort* port_;
  std::array<RateLimiter, net::kNumPriorities> limiters_;
};

/// The upstream half every GFC variant shares (the paper's Rate Adjuster):
/// a RateGate on each switch-facing egress port, reprogrammed with the rate
/// each received feedback frame maps to. Variants supply the downstream
/// half (which feedback to send, and when) and the mapping.
class RateAdjuster : public flowctl::LinkFcBase {
 public:
  /// Upstream view of the currently programmed rate (tests, wait-for
  /// graph); 0 on host-facing ports, which carry no gate.
  sim::Rate programmed_rate(int port, int prio) const;

  void on_control(int port, const net::Packet& pkt) final;

 protected:
  explicit RateAdjuster(net::PacketType feedback) : feedback_(feedback) {}

  /// Installs the gates; variants that override it call it first.
  void on_attach() override;

  /// A `feedback_` frame arrived on gated `port`: trace it and return the
  /// rate it maps to for pkt.fc_priority.
  virtual sim::Rate on_feedback(int port, const net::Packet& pkt) = 0;

 private:
  net::PacketType feedback_;
  std::vector<RateGate*> gates_;  // owned by the ports; null facing hosts
};

}  // namespace gfc::core
