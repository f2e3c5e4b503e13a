#include "fault/fault.hpp"

namespace gfc::fault {

FaultPlan::FaultPlan(net::Network& net, const FaultConfig& cfg)
    : net_(net), cfg_(cfg), rng_(cfg.seed) {
  net_.set_fault_hook(this);
}

FaultPlan::~FaultPlan() {
  if (net_.fault_hook() == this) net_.set_fault_hook(nullptr);
}

bool FaultPlan::drop(const net::Packet& pkt) {
  const auto type = static_cast<std::size_t>(pkt.type);
  const double p = cfg_.drop_prob[type];
  if (!(p > 0)) return false;
  const sim::TimePs now = net_.sched().now();
  if (now < cfg_.active_from || now >= cfg_.active_until) return false;
  ++counters_.consulted;
  // One draw per consulted frame, whether or not it is lost.
  if (rng_.uniform_real() >= p) return false;
  ++counters_.dropped;
  ++counters_.dropped_by_type[type];
  return true;
}

}  // namespace gfc::fault
