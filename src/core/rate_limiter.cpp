#include "core/rate_limiter.hpp"

namespace gfc::core {

void RateAdjuster::on_attach() {
  gates_.assign(static_cast<std::size_t>(node().port_count()), nullptr);
  for (int p = 0; p < node().port_count(); ++p) {
    if (peer_is_switch(p)) {
      auto gate = std::make_unique<RateGate>(node().port(p));
      gates_[static_cast<std::size_t>(p)] = gate.get();
      node().port(p).set_gate(std::move(gate));
    }
  }
}

void RateAdjuster::on_control(int port, const net::Packet& pkt) {
  if (pkt.type != feedback_) return;
  RateGate* gate = gates_[static_cast<std::size_t>(port)];
  if (gate == nullptr) return;
  gate->set_rate(pkt.fc_priority, on_feedback(port, pkt));
}

sim::Rate RateAdjuster::programmed_rate(int port, int prio) const {
  const RateGate* gate = gates_[static_cast<std::size_t>(port)];
  if (gate == nullptr) return sim::Rate{0};
  return gate->rate(prio);
}

}  // namespace gfc::core
