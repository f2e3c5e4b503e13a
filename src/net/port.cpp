#include "net/port.hpp"

#include <cassert>

#include "net/fault_hook.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace gfc::net {

EgressPort::EgressPort(Node& owner, int index, sim::Rate line_rate)
    : owner_(owner),
      index_(index),
      rate_(line_rate),
      gate_(std::make_unique<OpenGate>()) {}

sim::Scheduler& EgressPort::sched() { return owner_.sched_ref(); }

void EgressPort::connect(Node& peer, int peer_port, sim::TimePs prop_delay) {
  peer_ = &peer;
  peer_port_ = peer_port;
  prop_delay_ = prop_delay;
}

void EgressPort::set_gate(std::unique_ptr<TxGate> gate) {
  assert(gate != nullptr);
  gate_ = std::move(gate);
}

void EgressPort::enqueue_control(Packet* pkt) {
  assert(pkt->is_control());
  control_q_.push_back(pkt);
  try_transmit();
}

void EgressPort::kick() { try_transmit(); }

void EgressPort::set_link_up(bool up) {
  link_up_ = up;
  owner_.network().trace_event(
      up ? trace::EventType::kLinkUp : trace::EventType::kLinkDown,
      owner_.id(), index_, -1, 0, 0);
}

void EgressPort::cancel_wake() {
  if (wake_at_ == sim::kTimeNever) return;
  sched().cancel(wake_timer_);
  owner_.network().trace_event(trace::EventType::kWakeCancel, owner_.id(),
                               index_, -1, 0, wake_at_);
  wake_at_ = sim::kTimeNever;
}

void EgressPort::set_wake(sim::TimePs wake_at) {
  if (wake_at == wake_at_) return;  // timer already set for that instant
  cancel_wake();
  if (wake_at == sim::kTimeNever) return;
  if (!wake_timer_.valid())
    wake_timer_ = sched().register_timer([this] {
      wake_at_ = sim::kTimeNever;
      owner_.network().trace_event(trace::EventType::kWakeFire, owner_.id(),
                                   index_, -1, 0, sched().now());
      try_transmit();
    });
  wake_at_ = wake_at;
  owner_.network().trace_event(trace::EventType::kWakeArm, owner_.id(), index_,
                               -1, 0, wake_at);
  sched().fire_at(wake_timer_, wake_at);
}

void EgressPort::try_transmit() {
  if (in_flight_ != nullptr || !link_up_) return;

  // Control frames bypass data queues and all gating.
  if (!control_q_.empty()) {
    cancel_wake();
    start_tx(control_q_.pop_front(), /*control=*/true);
    return;
  }

  const sim::TimePs now = sched().now();
  sim::TimePs wake_at = sim::kTimeNever;
  bool any_waiting = false;
  Packet* pkt = owner_.poll_data(index_, now, &wake_at, /*consume=*/true,
                                 &any_waiting);
  if (pkt != nullptr) {
    cancel_wake();
    start_tx(pkt, /*control=*/false);
    return;
  }
  assert(wake_at == sim::kTimeNever || wake_at >= now);
  set_wake(wake_at);
}

bool EgressPort::probe_hold_and_wait(sim::TimePs now) {
  // A downed link stalls for physical reasons, not flow control — it is
  // not part of the paper's hold-and-wait condition.
  if (in_flight_ != nullptr || !control_q_.empty() || !link_up_) return false;
  sim::TimePs wake_at = sim::kTimeNever;
  bool any_waiting = false;
  Packet* pkt = owner_.poll_data(index_, now, &wake_at, /*consume=*/false,
                                 &any_waiting);
  return pkt == nullptr && any_waiting && wake_at == sim::kTimeNever;
}

void EgressPort::start_tx(Packet* pkt, bool control) {
  assert(peer_ != nullptr && "port must be connected");
  in_flight_ = pkt;
  in_flight_control_ = control;
  if (!control) {
    owner_.network().trace_event(trace::EventType::kTxStart, owner_.id(),
                                 index_, pkt->priority, pkt->id,
                                 pkt->size_bytes);
    gate_->on_transmit(*pkt, sched().now());
  }
  // A saturated port's N back-to-back transmissions fire this one
  // registered timer N times (often from inside its own firing, via
  // complete_tx -> try_transmit) instead of constructing and destroying N
  // one-shot events. At most one firing is pending: in_flight_ guards it.
  if (!tx_done_timer_.valid())
    tx_done_timer_ = sched().register_timer([this] { complete_tx(); });
  const sim::TimePs t = sim::tx_time(rate_, pkt->size_bytes);
  sched().fire_at(tx_done_timer_, sched().now() + t);
}

void EgressPort::complete_tx() {
  Packet* pkt = in_flight_;
  in_flight_ = nullptr;
  if (in_flight_control_) {
    tx_control_bytes_ += static_cast<std::uint64_t>(pkt->size_bytes);
    ++tx_control_frames_;
  } else {
    // Release ingress accounting / notify sender pacing before hand-off.
    owner_.on_departure(*pkt, index_);
  }
  propagate(pkt);
  try_transmit();
}

void EgressPort::propagate(Packet* pkt) {
  if (pkt->is_control()) {
    Network& net = owner_.network();
    ControlFaultHook* hook = net.fault_hook();
    if (hook != nullptr && hook->drop(*pkt)) {
      net.free_packet(pkt);
      return;
    }
  }
  sim::Scheduler& s = sched();
  if (!wire_timer_.valid())
    wire_timer_ = s.register_timer([this] { arrive(wire_.pop_front()); });
  wire_.push_back(pkt);
  s.fire_at(wire_timer_, s.now() + prop_delay_);
}

void EgressPort::arrive(Packet* pkt) {
  // Arrival-time check: a link that went down mid-propagation loses the
  // frame (both PHYs are gone; there is no store-and-forward on a wire).
  if (!link_up_) {
    Network& net = owner_.network();
    ++net.counters().wire_lost_packets;
    net.trace_event(trace::EventType::kWireLost, peer_->id(), peer_port_,
                    pkt->priority, pkt->id, pkt->size_bytes);
    net.free_packet(pkt);
    return;
  }
  peer_->receive(pkt, peer_port_);
}

}  // namespace gfc::net
