#include "core/gfc_conceptual.hpp"

#include <cstdlib>

namespace gfc::core {

void GfcConceptualModule::on_attach() {
  RateAdjuster::on_attach();
  last_sent_q_.assign(static_cast<std::size_t>(node().port_count()), {});
}

void GfcConceptualModule::maybe_report(int port, int prio) {
  flowctl::SwitchNode* sw = as_switch();
  if (sw == nullptr) return;
  const std::int64_t q = sw->ingress_bytes(port, prio);
  auto& last = last_sent_q_[static_cast<std::size_t>(port)]
                           [static_cast<std::size_t>(prio)];
  // Only report movement that changes the mapped rate: below B_0 the
  // mapping is flat at line rate, so be quiet there (and once when
  // re-entering the flat region so the upstream restores line rate).
  const bool flat = q <= mapping_.b0() && last <= mapping_.b0();
  if (flat && last >= 0) return;
  if (std::llabs(q - last) < kMinDeltaBytes && !(q <= mapping_.b0() && last > mapping_.b0()))
    return;
  last = q;
  net::Packet* frame = node().make_control(net::PacketType::kGfcQueue);
  frame->fc_priority = prio;
  frame->set_fc_value(q);
  network().trace_event(trace::EventType::kQsampleTx, node().id(), port, prio,
                        frame->id, q);
  node().send_control(port, frame);
}

void GfcConceptualModule::on_ingress_enqueue(int port, int prio,
                                             const net::Packet& pkt) {
  LinkFcBase::on_ingress_enqueue(port, prio, pkt);
  maybe_report(port, prio);
}

void GfcConceptualModule::on_ingress_dequeue(int port, int prio,
                                             const net::Packet&) {
  maybe_report(port, prio);
}

sim::Rate GfcConceptualModule::on_feedback(int port, const net::Packet& pkt) {
  network().trace_event(trace::EventType::kQsampleRx, node().id(), port,
                        pkt.fc_priority, pkt.id, pkt.fc_value());
  return mapping_.rate_for(pkt.fc_value());
}

}  // namespace gfc::core
