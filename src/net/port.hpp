// Egress port: a control-frame bypass queue, a transmit state machine
// gated by the attached flow-control mechanism, and the one-way wire to
// the peer's ingress. Data packets stay in the owning node's queues; the
// port pulls the next one through Node::poll_data when it can transmit.
//
// Control frames bypass data queues and are never paused/rate limited, but
// they cannot preempt an in-flight data packet — this produces the MTU/C
// components of the paper's feedback latency tau (Eq. 6).
//
// The wire: serialization happens here, then every packet reaches the peer
// exactly one propagation delay after hand-off, so any number may be on
// the wire at once and they arrive in send order. Link-control frames are
// offered to the Network's ControlFaultHook as they enter the wire, and a
// link that goes down loses whatever is in flight at its arrival instant —
// exactly the failure mode that makes edge-triggered protocols (PFC) lose
// XOFF/XON state.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::net {

class Node;

/// Transmission gate installed on an egress port by the flow-control
/// mechanism's upstream half. Decides whether a data packet may start
/// transmission now.
class TxGate {
 public:
  virtual ~TxGate() = default;

  /// May `pkt` start transmission at `now`? If blocked and the gate knows
  /// its own wake time (rate limiters do), it lowers *wake_at (absolute
  /// time); event-driven gates (pause, credits) leave it untouched and call
  /// EgressPort::kick() when state changes.
  virtual bool allowed(const Packet& pkt, sim::TimePs now, sim::TimePs* wake_at) = 0;

  /// A data packet passed the gate and started transmission at `now`.
  virtual void on_transmit(const Packet& pkt, sim::TimePs now) = 0;
};

/// Gate that always allows (no flow control).
class OpenGate final : public TxGate {
 public:
  bool allowed(const Packet&, sim::TimePs, sim::TimePs*) override { return true; }
  void on_transmit(const Packet&, sim::TimePs) override {}
};

class EgressPort {
 public:
  EgressPort(Node& owner, int index, sim::Rate line_rate);

  /// Wire this port to ingress `peer_port` of `peer`, `prop_delay` away.
  void connect(Node& peer, int peer_port, sim::TimePs prop_delay);
  /// The far end; null until connected.
  Node* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }

  /// Link state (runtime failures). A downed port starts no transmissions
  /// (queued data waits in the owner), and packets already on its wire are
  /// lost on arrival (Counters::wire_lost_packets). Callers kick() after
  /// bringing it back up.
  void set_link_up(bool up);
  bool link_up() const { return link_up_; }

  /// Queue a link-control frame (bypass lane).
  void enqueue_control(Packet* pkt);

  /// Re-evaluate transmission; called by gates when they open and by the
  /// owner when it queues data for this port.
  void kick();

  void set_gate(std::unique_ptr<TxGate> gate);
  TxGate& gate() { return *gate_; }

  // --- observers ---------------------------------------------------------
  int index() const { return index_; }
  sim::Rate line_rate() const { return rate_; }
  Node& owner() { return owner_; }
  std::uint64_t tx_control_bytes() const { return tx_control_bytes_; }
  std::uint64_t tx_control_frames() const { return tx_control_frames_; }

  /// Deadlock probe: true iff the owner holds data for this port, the port
  /// is idle, and every priority's next-up packet is blocked by the gate
  /// with no scheduled wake — i.e. the port is in the paper's hold-and-wait
  /// state.
  bool probe_hold_and_wait(sim::TimePs now);

 private:
  void try_transmit();
  void start_tx(Packet* pkt, bool control);
  void complete_tx();
  /// Put a fully transmitted packet on the wire.
  void propagate(Packet* pkt);
  /// The wire's head reaches the peer: lost if the link went down meanwhile.
  void arrive(Packet* pkt);
  sim::Scheduler& sched();

  /// Drop the pending wake, if any.
  void cancel_wake();
  /// Set the wake timer to fire at `wake_at`; kTimeNever leaves none
  /// pending. A wake already pending for the same instant is kept: gate
  /// kicks that do not change the wake time are common. Otherwise the
  /// pending firing is cancelled and a new one queued, which takes a fresh
  /// FIFO sequence number. While the owner holds blocked data, a wake stays
  /// pending unless the gate has no wake time of its own — the
  /// hold-and-wait condition probe_hold_and_wait tests.
  void set_wake(sim::TimePs wake_at);

  Node& owner_;
  int index_;
  sim::Rate rate_;

  PacketFifo control_q_;

  std::unique_ptr<TxGate> gate_;
  bool link_up_ = true;
  Packet* in_flight_ = nullptr;
  bool in_flight_control_ = false;
  sim::TimerId wake_timer_{};              // registered on the first wake
  sim::TimePs wake_at_ = sim::kTimeNever;  // its pending firing, if any
  sim::TimerId tx_done_timer_{};           // fires complete_tx

  Node* peer_ = nullptr;
  int peer_port_ = -1;
  sim::TimePs prop_delay_ = 0;
  // Fixed delay and a monotonic clock make the wire a FIFO: one registered
  // timer pops its head per firing instead of each packet carrying its own
  // one-shot closure.
  PacketFifo wire_;
  sim::TimerId wire_timer_{};  // registered on the first hand-off

  std::uint64_t tx_control_bytes_ = 0;
  std::uint64_t tx_control_frames_ = 0;
};

}  // namespace gfc::net
