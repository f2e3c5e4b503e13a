#include "flowctl/cbfc.hpp"

#include <cassert>

namespace gfc::flowctl {

void CbfcModule::on_attach() {
  assert(cfg_.period > 0 && cfg_.buffer_bytes > 0);
  const auto n = static_cast<std::size_t>(node().port_count());
  fwd_blocks_.assign(n, {});
  gates_.assign(n, nullptr);
  for (int p = 0; p < node().port_count(); ++p) {
    // Credit-gate only links whose peer advertises credits (switches).
    if (peer_is_switch(p)) {
      auto gate = std::make_unique<CreditGate>(cfg_, node().port(p));
      gates_[static_cast<std::size_t>(p)] = gate.get();
      node().port(p).set_gate(std::move(gate));
    }
  }
  // Only switches do ingress accounting, hence only they advertise.
  if (as_switch() != nullptr) {
    for (int p = 0; p < node().port_count(); ++p) {
      arm_timer(p);
      if (cfg_.sync_period > 0) arm_sync(p);
    }
  }
}

void CbfcModule::arm_sync(int port) {
  sched().schedule_in(cfg_.sync_period, [this, port] {
    send_credits(port);
    arm_sync(port);
  });
}

void CbfcModule::arm_timer(int port) {
  sched().schedule_in(cfg_.period, [this, port] {
    send_credits(port);
    arm_timer(port);
  });
}

void CbfcModule::send_credits(int port) {
  const std::uint32_t mask = active_prios(port);
  if (mask == 0) return;
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    if ((mask & (1u << prio)) == 0) continue;
    Packet* frame = node().make_control(PacketType::kCredit);
    frame->fc_priority = prio;
    frame->set_fc_value(fwd_blocks_[static_cast<std::size_t>(port)]
                                   [static_cast<std::size_t>(prio)] +
                        cfg_.buffer_blocks());
    network().trace_event(trace::EventType::kCreditTx, node().id(), port, prio,
                          frame->id, frame->fc_value());
    node().send_control(port, frame);
  }
}

void CbfcModule::on_ingress_dequeue(int port, int prio, const Packet& pkt) {
  fwd_blocks_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)] +=
      cfg_.blocks_for(pkt.size_bytes);
}

void CbfcModule::on_control(int port, const Packet& pkt) {
  if (pkt.type != PacketType::kCredit) return;
  CreditGate* gate = gates_[static_cast<std::size_t>(port)];
  if (gate == nullptr) return;
  network().trace_event(trace::EventType::kCreditRx, node().id(), port,
                        pkt.fc_priority, pkt.id, pkt.fc_value());
  gate->update_fccl(pkt.fc_priority, pkt.fc_value());
  node().port(port).kick();
}

}  // namespace gfc::flowctl
