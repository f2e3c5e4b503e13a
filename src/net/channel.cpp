#include "net/channel.hpp"

#include "net/fault_hook.hpp"
#include "net/network.hpp"
#include "net/node.hpp"

namespace gfc::net {

Channel::Channel(Network& net, Node& dst, int dst_port, sim::TimePs prop_delay)
    : net_(net),
      dst_(dst),
      dst_port_(dst_port),
      prop_delay_(prop_delay) {}

void Channel::arrive(Packet* pkt) {
  // Arrival-time check: a link that went down mid-propagation loses the
  // frame (both PHYs are gone; there is no store-and-forward on a wire).
  if (!up_) {
    ++net_.counters().wire_lost_packets;
    net_.trace_event(trace::EventType::kWireLost, dst_.id(), dst_port_,
                     pkt->priority, pkt->id, pkt->size_bytes);
    net_.free_packet(pkt);
    return;
  }
  dst_.receive(pkt, dst_port_);
}

void Channel::propagate(Packet* pkt, sim::TimePs delay) {
  if (delay == prop_delay_) {
    // Fixed-delay fast path: the packet rides the wire FIFO and the shared
    // registered timer. fire_at takes its sequence number right here, where
    // schedule_in took it, so arrival order is byte-identical.
    sim::Scheduler& sched = dst_.sched_ref();
    if (!flight_timer_.valid())
      flight_timer_ =
          sched.register_timer([this] { arrive(flight_.pop_front()); });
    flight_.push_back(pkt);
    sched.fire_at(flight_timer_, sched.now() + delay);
    return;
  }
  net_.sched().schedule_in(delay, [this, pkt] { arrive(pkt); });
}

void Channel::deliver(Packet* pkt) {
  if (pkt->is_control()) {
    if (ControlFaultHook* hook = net_.fault_hook()) {
      const ControlFaultHook::Verdict v = hook->on_control_frame(*pkt);
      switch (v.action) {
        case ControlFaultHook::Action::kDrop:
          net_.free_packet(pkt);
          return;
        case ControlFaultHook::Action::kDuplicate:
          propagate(net_.clone_control(*pkt), prop_delay_);
          break;  // the original still propagates normally
        case ControlFaultHook::Action::kDelay:
          propagate(pkt, prop_delay_ + v.extra_delay);
          return;
        case ControlFaultHook::Action::kDeliver:
          break;
      }
    }
  }
  propagate(pkt, prop_delay_);
}

}  // namespace gfc::net
