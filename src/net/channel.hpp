// Unidirectional wire: fixed propagation delay to a (node, port) endpoint.
// Serialization happens at the egress port; the channel only delays
// delivery, so any number of packets may be "on the wire" at once. They
// ride a PacketFifo in send order; a fault-delayed frame, which can
// overtake, rides its own one-shot event instead. Both end in one arrival
// check.
//
// The channel is also where runtime faults live: link-control frames are
// offered to the Network's ControlFaultHook (drop / duplicate / delay) as
// they enter the wire, and a downed channel loses whatever is in flight
// when the propagation delay elapses — exactly the failure mode that makes
// edge-triggered protocols (PFC) lose XOFF/XON state.
#pragma once

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::net {

class Node;
class Network;

class Channel {
 public:
  Channel(Network& net, Node& dst, int dst_port, sim::TimePs prop_delay);

  /// Hand over a fully transmitted packet; it arrives after prop_delay
  /// (subject to fault injection for link-control frames).
  void deliver(Packet* pkt);

  /// Link state. Packets already propagating when the link goes down are
  /// lost at their arrival instant (counted in Counters::wire_lost_packets).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  Node& dst() { return dst_; }
  int dst_port() const { return dst_port_; }

 private:
  void propagate(Packet* pkt, sim::TimePs delay);
  /// A packet reaches the far end: lost if the link went down meanwhile.
  void arrive(Packet* pkt);

  Network& net_;
  Node& dst_;
  int dst_port_;
  sim::TimePs prop_delay_;
  bool up_ = true;
  // Fixed-delay wire FIFO: arrivals fire in send order (constant delay,
  // monotonic clock), so one registered timer pops this queue head per
  // firing instead of each packet carrying its own one-shot closure.
  // Fault-delayed frames break FIFO and keep the one-shot path.
  PacketFifo flight_;
  sim::TimerId flight_timer_{};  // registered on the first fixed-delay send
};

}  // namespace gfc::net
