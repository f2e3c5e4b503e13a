// Runtime fault injection for link-control frames.
//
// A FaultPlan installs itself as the Network's ControlFaultHook and decides
// — from one seeded RNG draw per consulted frame — whether each PFC
// pause/resume, CBFC credit or GFC feedback frame is lost on the wire.
// Drop probabilities are per PacketType, so an experiment can lose only
// RESUMEs (the classic PFC wedge) or only credits, and an optional
// [active_from, active_until) window scopes the losses to part of the run
// (deterministic "lose the next RESUME" regression tests).
//
// Determinism: the plan owns its own Rng (never the Network's), consumes
// exactly one uniform draw per consulted control frame, and campaigns
// construct one plan per trial — results are byte-identical for any
// worker-pool job count.
#pragma once

#include <array>
#include <cstdint>

#include "net/fault_hook.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace gfc::fault {

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Faults apply only to frames entering the wire in [from, until).
  sim::TimePs active_from = 0;
  sim::TimePs active_until = sim::kTimeNever;

  std::array<double, 8> drop_prob{};  // indexed by PacketType

  double& drop(net::PacketType t) {
    return drop_prob[static_cast<std::size_t>(t)];
  }

  bool enabled() const {
    for (const double p : drop_prob)
      if (p > 0) return true;
    return false;
  }
};

class FaultPlan final : public net::ControlFaultHook {
 public:
  /// Installs itself on `net`; the destructor uninstalls.
  FaultPlan(net::Network& net, const FaultConfig& cfg);
  ~FaultPlan() override;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  bool drop(const net::Packet& pkt) override;

  struct Counters {
    std::uint64_t consulted = 0;
    std::uint64_t dropped = 0;
    std::array<std::uint64_t, 8> dropped_by_type{};  // indexed by PacketType
  };
  const Counters& counters() const { return counters_; }
  const FaultConfig& config() const { return cfg_; }

 private:
  net::Network& net_;
  FaultConfig cfg_;
  sim::Rng rng_;
  Counters counters_;
};

}  // namespace gfc::fault
