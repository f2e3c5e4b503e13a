#include "net/network.hpp"

#include <cassert>

namespace gfc::net {

Network::Network() = default;
Network::~Network() = default;

template <typename NodeT, typename... Args>
NodeT& Network::emplace_node(Args&&... args) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto node = std::make_unique<NodeT>(*this, id, std::forward<Args>(args)...);
  NodeT& ref = *node;
  nodes_.push_back(std::move(node));
  return ref;
}

SwitchNode& Network::add_switch(std::string name, std::int64_t buffer) {
  return emplace_node<SwitchNode>(std::move(name), buffer);
}

HostNode& Network::add_host(std::string name) {
  return emplace_node<HostNode>(std::move(name));
}

HostNode* Network::host(NodeId id) {
  return dynamic_cast<HostNode*>(nodes_[static_cast<std::size_t>(id)].get());
}

SwitchNode* Network::sw(NodeId id) {
  return dynamic_cast<SwitchNode*>(nodes_[static_cast<std::size_t>(id)].get());
}

std::pair<int, int> Network::connect(NodeId a, NodeId b, sim::Rate rate,
                                     sim::TimePs prop_delay) {
  Node& na = node(a);
  Node& nb = node(b);
  const int pa = na.add_port(rate);
  const int pb = nb.add_port(rate);
  na.port(pa).connect(nb, pb, prop_delay);
  nb.port(pb).connect(na, pa, prop_delay);
  return {pa, pb};
}

int Network::find_port(NodeId from, NodeId to) const {
  const Node& n = node(from);
  for (int p = 0; p < n.port_count(); ++p)
    if (n.peer(p).node == to) return p;
  return -1;
}

void Network::set_link_state(NodeId a, NodeId b, bool up) {
  const int pa = find_port(a, b);
  assert(pa >= 0 && "set_link_state on non-adjacent nodes");
  const int pb = node(a).peer(pa).port;
  EgressPort& ea = node(a).port(pa);
  EgressPort& eb = node(b).port(pb);
  ea.set_link_up(up);
  eb.set_link_up(up);
  if (up) {
    ea.kick();
    eb.kick();
  }
}

void Network::reroute_stranded() {
  for (auto& n : nodes_)
    if (auto* s = dynamic_cast<SwitchNode*>(n.get())) s->reroute_stranded();
}

Flow& Network::create_flow(NodeId src, NodeId dst, std::uint8_t priority,
                           std::int64_t size_bytes, sim::TimePs start_time) {
  assert(host(src) != nullptr && host(dst) != nullptr);
  Flow flow;
  flow.id = static_cast<FlowId>(flows_.size());
  flow.src = src;
  flow.dst = dst;
  flow.priority = priority;
  flow.size_bytes = size_bytes;
  flow.start_time = start_time;
  flow.path_salt = rng_.engine()();
  flows_.push_back(flow);
  const FlowId id = flow.id;
  if (start_time <= sched_.now()) {
    host(src)->start_flow(id);
  } else {
    sched_.schedule_at(start_time, [this, src, id] { host(src)->start_flow(id); });
  }
  return flows_.back();
}

void Network::notify_delivery(const Packet& pkt) {
  for (DeliveryListener* l : delivery_listeners_) l->on_delivery(pkt, sched_.now());
}

void Network::notify_completion(Flow& flow) {
  for (auto& fn : completion_listeners_) fn(flow);
}

}  // namespace gfc::net
