#include "core/gfc_buffer.hpp"

namespace gfc::core {

void GfcBufferModule::on_attach() {
  RateAdjuster::on_attach();
  stage_.assign(static_cast<std::size_t>(node().port_count()), {});
}

void GfcBufferModule::send_stage(int port, int prio) {
  auto& st = stage_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  st.sent_stage = st.cur_stage;
  st.last_sent = sched().now();
  st.pending = {};
  net::Packet* frame = node().make_control(net::PacketType::kGfcStage);
  frame->fc_priority = prio;
  frame->fc_stage = st.cur_stage;
  network().trace_event(trace::EventType::kStageTx, node().id(), port, prio,
                        frame->id, st.cur_stage);
  node().send_control(port, frame);
}

void GfcBufferModule::check_stage(int port, int prio) {
  flowctl::SwitchNode* sw = as_switch();
  if (sw == nullptr) return;
  const int s = mapping_.stage_of(sw->ingress_bytes(port, prio));
  auto& st = stage_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  if (s == st.cur_stage) return;
  st.cur_stage = static_cast<std::int8_t>(s);
  if (st.cur_stage == st.sent_stage) {
    // Oscillated back before the trailing frame fired: nothing to say.
    if (st.pending.valid()) {
      sched().cancel(st.pending);
      st.pending = {};
    }
    return;
  }
  const sim::TimePs now = sched().now();
  if (min_gap_ <= 0 || st.last_sent < 0 || now - st.last_sent >= min_gap_) {
    send_stage(port, prio);
    return;
  }
  if (!st.pending.valid()) {
    st.pending = sched().schedule_at(
        st.last_sent + min_gap_, [this, port, prio] {
          auto& s2 = stage_[static_cast<std::size_t>(port)]
                           [static_cast<std::size_t>(prio)];
          s2.pending = {};
          if (s2.cur_stage != s2.sent_stage) send_stage(port, prio);
        });
  }
}

void GfcBufferModule::on_ingress_enqueue(int port, int prio,
                                         const net::Packet& pkt) {
  LinkFcBase::on_ingress_enqueue(port, prio, pkt);
  check_stage(port, prio);
}

void GfcBufferModule::on_ingress_dequeue(int port, int prio,
                                         const net::Packet&) {
  check_stage(port, prio);
}

sim::Rate GfcBufferModule::on_feedback(int port, const net::Packet& pkt) {
  network().trace_event(trace::EventType::kStageRx, node().id(), port,
                        pkt.fc_priority, pkt.id, pkt.fc_stage);
  return mapping_.rate_of(pkt.fc_stage);
}

}  // namespace gfc::core
