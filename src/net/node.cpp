#include "net/node.hpp"

#include <cassert>

#include "net/network.hpp"

namespace gfc::net {

Node::Node(Network& net, NodeId id, std::string name)
    : net_(net), sched_(&net.sched()), id_(id), name_(std::move(name)) {}

int Node::add_port(sim::Rate rate) {
  const int idx = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<EgressPort>(*this, idx, rate));
  peers_.push_back(Peer{});
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
