// Node base class: anything with ports (switches, hosts).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "net/fc_module.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"

namespace gfc::net {

class Network;

/// One PacketFifo per priority, served round-robin over the non-empty
/// priorities: the service order of every node's egress data queues.
class PrioQueues {
 public:
  const PacketFifo& fifo(int prio) const {
    return q_[static_cast<std::size_t>(prio)];
  }

  void push(Packet* pkt) {
    q_[pkt->priority].push_back(pkt);
    nonempty_ |= 1u << pkt->priority;
  }

  /// Remove the head of priority `prio`, which must hold packets.
  Packet* pop(int prio) {
    PacketFifo& q = q_[static_cast<std::size_t>(prio)];
    Packet* pkt = q.pop_front();
    if (q.empty()) nonempty_ &= ~(1u << prio);
    return pkt;
  }

  /// Node::poll_data over these queues: offer each non-empty priority's
  /// head to `gate`, starting at the round-robin cursor, and return the
  /// first one it lets through. With `consume` that packet is removed and
  /// the cursor moves past its priority.
  Packet* poll(TxGate& gate, sim::TimePs now, sim::TimePs* wake_at,
               bool consume, bool* any_waiting);

 private:
  std::array<PacketFifo, kNumPriorities> q_;
  std::uint32_t nonempty_ = 0;  // bit p set iff q_[p] holds packets
  int rr_ = 0;                  // priority the next walk starts at
};

class Node {
 public:
  Node(Network& net, NodeId id, std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// A packet fully arrived on `in_port` (after serialization+propagation).
  /// Ownership transfers to the node.
  virtual void receive(Packet* pkt, int in_port) = 0;

  /// An egress port finished transmitting `pkt` (called before the wire
  /// hand-off, at the transmission-complete instant).
  virtual void on_departure(Packet& pkt, int out_port);

  /// Data source for egress port `egress_port`: hand it the next packet
  /// its gate lets through, in the node's own service order (round-robin
  /// over priorities; switches add their queueing discipline). With
  /// consume == false this is a dry-run probe that removes nothing.
  /// *any_waiting is set when some queue's next-up packet waits for this
  /// egress; *wake_at is lowered to the earliest gate wake time.
  virtual Packet* poll_data(int egress_port, sim::TimePs now,
                            sim::TimePs* wake_at, bool consume,
                            bool* any_waiting) = 0;

  virtual bool is_switch() const = 0;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Network& network() { return net_; }
  const Network& network() const { return net_; }

  /// Scheduler this node's events run on (the Network's; cached here
  /// because Network is incomplete in this header).
  sim::Scheduler& sched_ref() { return *sched_; }

  int port_count() const { return static_cast<int>(ports_.size()); }
  EgressPort& port(int i) { return *ports_[static_cast<std::size_t>(i)]; }
  const EgressPort& port(int i) const { return *ports_[static_cast<std::size_t>(i)]; }

  /// The far end of port `port_index`'s wire (set by Network::connect).
  struct Peer {
    NodeId node = kInvalidNode;
    int port = -1;
  };
  Peer peer(int port_index) const {
    const EgressPort& e = port(port_index);
    return e.peer() != nullptr ? Peer{e.peer()->id(), e.peer_port()} : Peer{};
  }

  /// Create a new port transmitting at `rate`; returns its index.
  int add_port(sim::Rate rate);

  void set_fc(std::unique_ptr<FcModule> fc);
  FcModule* fc() { return fc_.get(); }

  /// Build a 64 B link-control frame (caller fills type-specific fields,
  /// then hands it to send_control).
  Packet* make_control(PacketType type);

  /// Emit a link-control frame out of `port_index` (bypass queue).
  void send_control(int port_index, Packet* pkt);

 protected:
  /// Route an arriving link-control frame to the FcModule after the
  /// configured processing delay, then free it.
  void deliver_control(Packet* pkt, int in_port);

 private:
  Network& net_;
  sim::Scheduler* sched_;  // &net_.sched(), set in the ctor
  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::unique_ptr<FcModule> fc_;
};

}  // namespace gfc::net
