#include "core/gfc_time.hpp"

#include <cassert>

namespace gfc::core {

void GfcTimeModule::on_attach() {
  assert(period_ > 0);
  RateAdjuster::on_attach();
  if (as_switch() != nullptr) {
    for (int p = 0; p < node().port_count(); ++p) arm_timer(p);
  }
}

void GfcTimeModule::arm_timer(int port) {
  sched().schedule_in(period_, [this, port] {
    send_samples(port);
    arm_timer(port);
  });
}

void GfcTimeModule::send_samples(int port) {
  const std::uint32_t mask = active_prios(port);
  if (mask == 0) return;
  flowctl::SwitchNode* sw = as_switch();
  for (int prio = 0; prio < net::kNumPriorities; ++prio) {
    if ((mask & (1u << prio)) == 0) continue;
    net::Packet* frame = node().make_control(net::PacketType::kGfcQueue);
    frame->fc_priority = prio;
    frame->set_fc_value(sw->ingress_bytes(port, prio));
    network().trace_event(trace::EventType::kQsampleTx, node().id(), port,
                          prio, frame->id, frame->fc_value());
    node().send_control(port, frame);
  }
}

sim::Rate GfcTimeModule::on_feedback(int port, const net::Packet& pkt) {
  network().trace_event(trace::EventType::kQsampleRx, node().id(), port,
                        pkt.fc_priority, pkt.id, pkt.fc_value());
  return mapping_.rate_for(pkt.fc_value());
}

}  // namespace gfc::core
