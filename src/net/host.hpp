// Host: a NIC-attached traffic source/sink.
//
// Sending keeps at most one packet per active flow staged in the NIC egress
// queue; the next packet is staged when the previous one departs (plus any
// pacing delay demanded by the flow's send_rate — the DCQCN knob). The NIC
// queue is the same PrioQueues set a switch egress uses (one FIFO per
// priority, round-robin over priorities), and the uplink port pulls from it
// through poll_data, gated by the link-level flow control exactly like a
// switch port, so PFC can pause a host and GFC can rate it.
#pragma once

#include <vector>

#include "net/flow.hpp"
#include "net/node.hpp"

namespace gfc::net {

class HostNode final : public Node {
 public:
  HostNode(Network& net, NodeId id, std::string name);

  bool is_switch() const override { return false; }
  void receive(Packet* pkt, int in_port) override;
  void on_departure(Packet& pkt, int out_port) override;
  Packet* poll_data(int egress_port, sim::TimePs now, sim::TimePs* wake_at,
                    bool consume, bool* any_waiting) override;

  /// Begin transmitting a registered flow (source must be this host).
  void start_flow(FlowId id);

  /// Congestion control changed flow.send_rate; pacing re-evaluates on the
  /// next departure, or immediately if the flow is waiting on its timer.
  void notify_rate_change(FlowId id);

  /// Inject a pre-built routable packet (e.g. a CNP) into the NIC.
  void inject(Packet* pkt);

  int uplink_port() const { return 0; }

  void set_mtu(std::int64_t mtu) { mtu_ = mtu; }
  std::int64_t mtu() const { return mtu_; }

 private:
  struct SenderFlow {
    FlowId id = kInvalidFlow;
    bool staged = false;      // one packet currently in the NIC queue
    sim::EventId timer{};     // pending pacing timer
  };

  /// Queue a data packet (or CNP) in the NIC and kick the uplink.
  void enqueue(Packet* pkt);
  void stage_next(std::size_t idx);
  SenderFlow* find_sender(FlowId id, std::size_t* idx = nullptr);
  void drop_sender(std::size_t idx);

  std::vector<SenderFlow> sending_;
  PrioQueues nic_;
  std::int64_t mtu_ = 1500;
};

}  // namespace gfc::net
