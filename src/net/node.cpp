#include "net/node.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>

#include "net/network.hpp"

namespace gfc::net {

Packet* PrioQueues::poll(TxGate& gate, sim::TimePs now, sim::TimePs* wake_at,
                         bool consume, bool* any_waiting) {
  // Rotate the non-empty mask so bit k stands for priority (rr_ + k);
  // walking its set bits visits exactly the priorities a full round-robin
  // scan would find non-empty, in the same order.
  std::uint32_t rot =
      ((nonempty_ >> rr_) | (nonempty_ << (kNumPriorities - rr_))) &
      ((1u << kNumPriorities) - 1);
  while (rot != 0) {
    const int prio = (rr_ + std::countr_zero(rot)) % kNumPriorities;
    rot &= rot - 1;
    Packet* head = q_[static_cast<std::size_t>(prio)].front();
    *any_waiting = true;
    if (!gate.allowed(*head, now, wake_at)) continue;
    if (consume) {
      pop(prio);
      rr_ = (prio + 1) % kNumPriorities;
    }
    return head;
  }
  return nullptr;
}

Node::Node(Network& net, NodeId id, std::string name)
    : net_(net), sched_(&net.sched()), id_(id), name_(std::move(name)) {}

int Node::add_port(sim::Rate rate) {
  const int idx = static_cast<int>(ports_.size());
  // Packet carries port indices in 16 bits.
  assert(idx < std::numeric_limits<std::int16_t>::max());
  ports_.push_back(std::make_unique<EgressPort>(*this, idx, rate));
  return idx;
}

void Node::set_fc(std::unique_ptr<FcModule> fc) {
  fc_ = std::move(fc);
  if (fc_) fc_->attach(*this);
}

void Node::on_departure(Packet&, int) {}

Packet* Node::make_control(PacketType type) {
  assert(is_link_control(type));
  Packet* pkt = net_.pool().acquire();
  pkt->type = type;
  pkt->size_bytes = kControlFrameBytes;
  pkt->created_at = sched_ref().now();
  return pkt;
}

void Node::send_control(int port_index, Packet* pkt) {
  ++net_.counters().control_frames_sent;
  port(port_index).enqueue_control(pkt);
}

void Node::deliver_control(Packet* pkt, int in_port) {
  const sim::TimePs delay = net_.control_delay();
  if (delay == 0) {
    if (fc_) fc_->on_control(in_port, *pkt);
    net_.free_packet(pkt);
    return;
  }
  sched_ref().schedule_in(delay, [this, pkt, in_port] {
    if (fc_) fc_->on_control(in_port, *pkt);
    net_.free_packet(pkt);
  });
}

}  // namespace gfc::net
