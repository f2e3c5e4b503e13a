#include "net/host.hpp"

#include <algorithm>
#include <cassert>

#include "net/network.hpp"

namespace gfc::net {

HostNode::HostNode(Network& net, NodeId id, std::string name)
    : Node(net, id, std::move(name)) {}

HostNode::SenderFlow* HostNode::find_sender(FlowId id, std::size_t* idx) {
  for (std::size_t i = 0; i < sending_.size(); ++i) {
    if (sending_[i].id == id) {
      if (idx != nullptr) *idx = i;
      return &sending_[i];
    }
  }
  return nullptr;
}

void HostNode::drop_sender(std::size_t idx) {
  if (sending_[idx].timer.valid()) sched_ref().cancel(sending_[idx].timer);
  sending_.erase(sending_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void HostNode::start_flow(FlowId id) {
  Flow& flow = network().flow(id);
  assert(flow.src == this->id());
  assert(find_sender(id) == nullptr && "flow already active");
  sending_.push_back(SenderFlow{id, false, {}});
  network().trace_event(trace::EventType::kFlowStart, this->id(), -1,
                        flow.priority, static_cast<std::uint64_t>(id),
                        flow.size_bytes);
  if (network().cc()) network().cc()->on_flow_start(flow);
  stage_next(sending_.size() - 1);
}

void HostNode::stage_next(std::size_t idx) {
  SenderFlow& sf = sending_[idx];
  sf.timer = {};
  Flow& flow = network().flow(sf.id);
  if (flow.sender_done()) {
    if (!sf.staged) drop_sender(idx);
    return;
  }
  const std::int64_t remaining =
      flow.unbounded() ? mtu_ : flow.size_bytes - flow.bytes_enqueued;
  const std::int64_t len = std::min<std::int64_t>(mtu_, remaining);
  Packet* pkt = network().pool().acquire();
  pkt->type = PacketType::kData;
  pkt->priority = flow.priority;
  pkt->size_bytes = len;
  pkt->src = flow.src;
  pkt->dst = flow.dst;
  pkt->flow = flow.id;
  pkt->path_salt = flow.path_salt;
  pkt->created_at = sched_ref().now();
  flow.bytes_enqueued += len;
  sf.staged = true;
  port(uplink_port()).enqueue(pkt);
}

void HostNode::on_departure(Packet& pkt, int /*out_port*/) {
  if (pkt.flow == kInvalidFlow || pkt.type != PacketType::kData) return;
  std::size_t idx = 0;
  SenderFlow* sf = find_sender(pkt.flow, &idx);
  if (sf == nullptr) return;
  if (pkt.src != id()) return;
  sf->staged = false;
  Flow& flow = network().flow(pkt.flow);
  if (network().cc()) network().cc()->on_data_sent(*this, flow, pkt);
  if (flow.sender_done()) {
    drop_sender(idx);
    return;
  }
  // Pacing: space packet starts L/R apart. Transmission took L/C; wait the
  // complement before staging the next packet.
  sim::TimePs extra = 0;
  if (!flow.send_rate.is_zero() && flow.send_rate < port(uplink_port()).line_rate()) {
    extra = sim::tx_time(flow.send_rate, pkt.size_bytes) -
            sim::tx_time(port(uplink_port()).line_rate(), pkt.size_bytes);
  }
  if (extra <= 0) {
    stage_next(idx);
  } else {
    const FlowId fid = pkt.flow;
    sf->timer = sched_ref().schedule_in(extra, [this, fid] {
      std::size_t i = 0;
      if (find_sender(fid, &i) != nullptr) stage_next(i);
    });
  }
}

void HostNode::notify_rate_change(FlowId id) {
  // A rate increase while the pacing timer is armed should take effect
  // immediately; conservatively restage now (the NIC line rate still lower-
  // bounds packet spacing, and one early packet is within pacing slack).
  std::size_t idx = 0;
  SenderFlow* sf = find_sender(id, &idx);
  if (sf == nullptr || sf->staged || !sf->timer.valid()) return;
  sched_ref().cancel(sf->timer);
  sf->timer = {};
  stage_next(idx);
}

void HostNode::inject(Packet* pkt) { port(uplink_port()).enqueue(pkt); }

void HostNode::receive(Packet* pkt, int in_port) {
  if (pkt->is_control()) {
    deliver_control(pkt, in_port);
    return;
  }
  if (pkt->type == PacketType::kCnp) {
    Flow& flow = network().flow(pkt->flow);
    if (network().cc()) network().cc()->on_cnp(*this, flow, *pkt);
    network().free_packet(pkt);
    return;
  }
  assert(pkt->type == PacketType::kData);
  assert(pkt->dst == id() && "data packet delivered to wrong host");
  Flow& flow = network().flow(pkt->flow);
  flow.bytes_delivered += pkt->size_bytes;
  auto& counters = network().counters();
  ++counters.data_packets_delivered;
  counters.data_bytes_delivered += pkt->size_bytes;
  network().trace_event(trace::EventType::kDeliver, id(), in_port,
                        pkt->priority, static_cast<std::uint64_t>(pkt->flow),
                        pkt->size_bytes);
  network().notify_delivery(*pkt);
  if (network().cc()) network().cc()->on_data_received(*this, flow, *pkt);
  if (flow.completed() && flow.finish_time < 0) {
    flow.finish_time = sched_ref().now();
    ++counters.flows_completed;
    network().trace_event(trace::EventType::kFlowComplete, id(), -1,
                          flow.priority,
                          static_cast<std::uint64_t>(flow.id),
                          flow.bytes_delivered);
    network().notify_completion(flow);
  }
  network().free_packet(pkt);
}

}  // namespace gfc::net
