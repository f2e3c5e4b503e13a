#include "mech/dcfit.hpp"

#include <algorithm>

namespace gfc::mech {

void DcfitModule::on_attach() {
  PfcModule::on_attach();
  const auto n = static_cast<std::size_t>(node().port_count());
  origin_.assign(n, {});
  incoming_.assign(n, {});
  refresh_.assign(n, {});
  refresh_count_.assign(n, {});
}

bool DcfitModule::origin_seq_live(int prio, std::uint32_t seq) const {
  for (const auto& ports : origin_) {
    const OriginState& o = ports[static_cast<std::size_t>(prio)];
    if (o.active && o.seq == seq) return true;
  }
  return false;
}

void DcfitModule::attach_trigger(net::Packet& frame, int port, int prio,
                                 bool allow_propagate) {
  net::SwitchNode* sw = as_switch();
  if (sw == nullptr) return;
  // Propagate: the congested ingress waits on a paused egress whose
  // downstream sent us a trigger — this pause is that pause's consequence.
  // Deterministic pick: the smallest such egress index.
  sw->head_targets(port, &head_targets_);
  std::sort(head_targets_.begin(), head_targets_.end());
  if (allow_propagate) {
    for (const int e : head_targets_) {
      if (e < 0 || e == port) continue;
      const IncomingTrigger& in = incoming_[static_cast<std::size_t>(e)]
                                           [static_cast<std::size_t>(prio)];
      if (in.origin == net::kInvalidNode || !gate_paused(e, prio)) continue;
      // Never recirculate our own *dead* trigger: after a break-and-rewedge
      // the cycle can refill with pauses that all carry sequences whose
      // origin entries have since resumed, and a cycle of dead triggers
      // detects nothing forever. Fall through and originate fresh instead.
      if (in.origin == node().id() && !origin_seq_live(prio, in.seq)) continue;
      frame.set_fc_trigger(in.origin, in.seq);
      network().trace_event(trace::EventType::kTriggerPropagate, node().id(),
                            port, prio, in.seq, in.origin);
      return;
    }
  }
  // Originate: this pause heads its chain. Keep the existing sequence and
  // timestamp while the pause stands (refresh re-sends must not reset the
  // detection-latency clock).
  OriginState& o =
      origin_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  if (!o.active) {
    o.active = true;
    o.seq = ++next_seq_;
    o.originated_at = sched().now();
    network().trace_event(trace::EventType::kTriggerOriginate, node().id(),
                          port, prio, o.seq, 0);
  }
  frame.set_fc_trigger(node().id(), o.seq);
}

void DcfitModule::decorate_pause(net::Packet& frame, int port, int prio) {
  attach_trigger(frame, port, prio);
}

void DcfitModule::arm_trigger_refresh(int port, int prio) {
  auto& ev =
      refresh_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  ev = sched().schedule_in(kTriggerPeriod, [this, port, prio] {
    refresh_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)] =
        {};
    if (!pause_sent(port, prio)) return;
    // Re-send the outstanding PAUSE with the *current* trigger: in a wedged
    // cycle this recirculates triggers one hop per period until one
    // returns to its origin. Every kReoriginateEvery-th refresh skips the
    // propagate step and injects a *fresh* origin: a cycle can otherwise
    // fill up with stale triggers whose (off-cycle) origins have resumed,
    // which circulate forever without ever proving the deadlock.
    auto& count = refresh_count_[static_cast<std::size_t>(port)]
                               [static_cast<std::size_t>(prio)];
    const bool reoriginate = ++count >= kReoriginateEvery;
    if (reoriginate) count = 0;
    net::Packet* frame = node().make_control(net::PacketType::kPfcPause);
    frame->fc_priority = prio;
    attach_trigger(*frame, port, prio, /*allow_propagate=*/!reoriginate);
    network().trace_event(trace::EventType::kPauseTx, node().id(), port, prio,
                          frame->id, /*refresh=*/1);
    node().send_control(port, frame);
    arm_trigger_refresh(port, prio);
  });
}

void DcfitModule::on_pause_state(int port, int prio, bool pause) {
  auto& ev =
      refresh_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)];
  if (ev.valid()) {
    sched().cancel(ev);
    ev = {};
  }
  if (pause) {
    refresh_count_[static_cast<std::size_t>(port)]
                  [static_cast<std::size_t>(prio)] = 0;
    arm_trigger_refresh(port, prio);
  } else {
    // RESUME: the chain headed here (if any) is over; its trigger dies.
    origin_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)]
        .active = false;
  }
}

void DcfitModule::on_pause_rx(int port, const net::Packet& pkt) {
  const int prio = pkt.fc_priority;
  incoming_[static_cast<std::size_t>(port)][static_cast<std::size_t>(prio)] = {
      pkt.fc_trigger_origin(), pkt.fc_trigger_seq()};
  if (pkt.fc_trigger_origin() != node().id()) return;
  // Our own trigger came back. Liveness re-check: the originating pause
  // must still be standing, else the chain resolved while the trigger was
  // in flight — a false positive, counted and ignored.
  for (int p = 0; p < node().port_count(); ++p) {
    const OriginState& o =
        origin_[static_cast<std::size_t>(p)][static_cast<std::size_t>(prio)];
    if (!o.active || o.seq != pkt.fc_trigger_seq()) continue;
    ++detections_;
    const sim::TimePs latency = sched().now() - o.originated_at;
    if (first_latency_ < 0) first_latency_ = latency;
    network().trace_event(trace::EventType::kTriggerReturn, node().id(), port,
                          prio, o.seq, latency);
    break_deadlock(port, prio);
    return;
  }
  ++false_positives_;
}

void DcfitModule::break_deadlock(int egress, int prio) {
  last_break_at_ = sched().now();
  if (dcfg_.break_policy == runner::DcfitBreak::kDropOne) {
    net::SwitchNode* sw = as_switch();
    const std::uint64_t n = sw != nullptr ? sw->drop_egress_head(egress) : 0;
    packets_sacrificed_ += n;
    network().trace_event(trace::EventType::kMechBreak, node().id(), egress,
                          prio, /*id=*/0, static_cast<std::int64_t>(n));
  } else {
    // Temporary bypass: open the gate and let the egress push into the
    // (full) downstream ingress until the downstream's next trigger
    // refresh re-pauses us. No packet loss, but the downstream may exceed
    // its buffer — the lossless-violation counter records the cost.
    ++bypasses_;
    network().trace_event(trace::EventType::kMechBreak, node().id(), egress,
                          prio, /*id=*/1, 0);
    force_unpause(egress, prio);
  }
}

void DcfitModule::on_resume_rx(int port, const net::Packet& pkt) {
  incoming_[static_cast<std::size_t>(port)]
           [static_cast<std::size_t>(pkt.fc_priority)] = {};
}

DcfitTotals collect_dcfit(net::Network& net) {
  DcfitTotals t;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    auto* m = dynamic_cast<DcfitModule*>(
        net.node(static_cast<net::NodeId>(i)).fc());
    if (m == nullptr) continue;
    t.detections += m->detections();
    t.false_positives += m->false_positives();
    t.packets_sacrificed += m->packets_sacrificed();
    t.bypasses += m->bypasses();
    if (m->first_detection_latency() >= 0 &&
        (t.first_detection_latency < 0 ||
         m->first_detection_latency() < t.first_detection_latency))
      t.first_detection_latency = m->first_detection_latency();
    t.last_break_at = std::max(t.last_break_at, m->last_break_at());
  }
  return t;
}

}  // namespace gfc::mech
