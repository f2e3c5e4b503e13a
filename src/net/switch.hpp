// Switch model with per-(ingress port, priority) buffer accounting and a
// configurable queueing discipline:
//
// * kOutputQueuedFifo (default): one unbounded FIFO per (egress,
//   priority), admission in arrival order — the classic OMNET++/ns-3
//   switch model the paper's simulator corresponds to. A contended egress
//   splits bandwidth proportionally to arrival rate, so transient
//   overloads push ingress accounting to XOFF and pauses propagate: this
//   is the model that reproduces the paper's PFC/CBFC deadlocks.
// * kCioqRoundRobin: CIOQ — one FIFO per (ingress, priority) feeding a
//   *bounded* FIFO per (egress, priority), with per-egress round-robin
//   arbitration across ingress ports (a crossbar / DPDK-RX-polling
//   fabric). Gives per-source-fair shares; reproduces the paper's GFC
//   steady-state numbers exactly. Under fair arbitration a *static*
//   symmetric ring reaches a stable equilibrium instead of deadlocking —
//   an ablation finding this library documents (bench/ablation_arbitration).
// * kInputQueued: no output stage; egress ports pull competing input-queue
//   heads directly (pure VOQ-less input queueing). Ablation only.
//
// Either way a packet is charged to the (ingress port, priority) it arrived
// on until it finishes transmitting on its egress, which is what the
// PFC/CBFC/GFC downstream halves watch. Every queue is a PacketFifo, and
// the egress queues are the PrioQueues set a host NIC uses too, so output
// queues cost no allocation until packets arrive.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "net/node.hpp"

namespace gfc::net {

/// ECN marking: a data packet is marked when the occupancy of its (ingress
/// port, priority) exceeds `threshold` bytes, the threshold marking of the
/// paper's DCQCN study. 0 turns marking off.
struct EcnConfig {
  std::int64_t threshold = 0;
};

enum class SwitchArch {
  kOutputQueuedFifo,  // arrival-order shared egress FIFOs (default)
  kCioqRoundRobin,    // fair crossbar: input FIFOs + bounded egress FIFOs
  kInputQueued,       // pure input queueing (ablation)
};

class SwitchNode final : public Node {
 public:
  SwitchNode(Network& net, NodeId id, std::string name,
             std::int64_t ingress_buffer_bytes);

  void set_arch(SwitchArch a) { arch_ = a; }
  SwitchArch arch() const { return arch_; }

  /// CIOQ egress output-queue byte cap per (egress, priority): 2 MTU.
  static constexpr std::int64_t kEgressQueueCap = 3000;

  bool is_switch() const override { return true; }
  void receive(Packet* pkt, int in_port) override;
  void on_departure(Packet& pkt, int out_port) override;
  Packet* poll_data(int egress_port, sim::TimePs now, sim::TimePs* wake_at,
                    bool consume, bool* any_waiting) override;

  // --- forwarding ---------------------------------------------------------
  /// Equal-cost candidate out-ports toward destination host `dst` (copied
  /// into the switch's flat table).
  void set_route(NodeId dst, std::span<const std::int32_t> out_ports);
  void set_route(NodeId dst, std::initializer_list<std::int32_t> out_ports) {
    set_route(dst, std::span<const std::int32_t>(out_ports.begin(),
                                                 out_ports.size()));
  }
  void clear_routes();
  /// Selected out-port for this packet (-1 if unroutable). ECMP choice is
  /// a deterministic hash of the flow's path salt.
  int route_for(const Packet& pkt) const;

  // --- buffers ------------------------------------------------------------
  std::int64_t ingress_buffer_bytes() const { return buffer_; }
  /// Occupancy charged to (port, prio): queued + being transmitted.
  std::int64_t ingress_bytes(int port, int prio) const {
    return ingress_bytes_[static_cast<std::size_t>(port)]
                         [static_cast<std::size_t>(prio)];
  }

  /// Egress ports targeted by the current heads of ingress queue
  /// `in_port` (one per active priority) — deadlock wait-for edges.
  void head_targets(int in_port, std::vector<int>* out) const;

  void set_ecn(const EcnConfig& cfg) { ecn_ = cfg; }
  const EcnConfig& ecn() const { return ecn_; }

  // --- runtime failures ----------------------------------------------------
  /// Re-route every queued packet whose selected egress link is down (new
  /// ECMP choice among live candidates; FIFO order preserved per queue).
  /// Unroutable packets are dropped into Counters::failover_drops with
  /// their ingress accounting released. Call after routing tables have
  /// been updated for the failure.
  void reroute_stranded();

  /// Deadlock recovery: discard everything queued for `egress` (output
  /// queue plus wedged input-FIFO heads), releasing ingress accounting so
  /// flow control can recover. Returns the number of packets dropped.
  std::uint64_t drain_egress(int egress);

  /// Surgical deadlock break (DCFIT drop-one policy): discard only the
  /// single next-up packet queued for `egress` — lowest non-empty priority
  /// FIFO first, wedged input-FIFO heads as fallback — releasing its
  /// ingress accounting. Returns the number of packets dropped (0 or 1).
  std::uint64_t drop_egress_head(int egress);

 private:
  void account_enqueue(Packet& pkt, int in_port);
  /// Release (ingress port, priority) accounting and fire the flow-control
  /// dequeue hook — shared by departure and the runtime drop paths.
  void release_ingress(Packet& pkt);
  /// Runtime drop of a packet taken off a queue: trace it against the
  /// egress it waited for, release its ingress accounting, free it.
  void discard(Packet* pkt);
  void maybe_mark_ecn(Packet& pkt, int in_port);
  void ensure_tables();
  /// Tell `egress` it has new work: CIOQ dispatches input heads into its
  /// output queue, the other architectures kick the port.
  void wake_egress(int egress);

  std::int64_t buffer_;
  EcnConfig ecn_;
  std::vector<std::array<std::int64_t, kNumPriorities>> ingress_bytes_;
  /// Per ingress port, the priorities in an overflow episode (occupancy
  /// over buffer_ since the last warning): one bit each.
  std::vector<std::uint8_t> overflowing_;
  static_assert(kNumPriorities <= 8);
  /// Input FIFOs per (ingress port, priority).
  std::vector<std::array<PacketFifo, kNumPriorities>> inq_;
  /// Egress queues per port (CIOQ: bounded by kEgressQueueCap per
  /// priority).
  std::vector<PrioQueues> outq_;
  /// Per-egress cursors over the input FIFOs: `in` is the ingress port
  /// CIOQ dispatch and input-queued polling try first, `prio` the priority
  /// input-queued polling tries first.
  struct EgressRr {
    int prio = 0;
    int in = 0;
  };
  std::vector<EgressRr> rr_;
  /// Move eligible input-queue heads into the output queues of
  /// `seed_egress` (and any egress unblocked by the moves), with per-egress
  /// round-robin arbitration across ingress ports — a crossbar arbiter.
  /// Wakes egresses that received work (deferred to avoid re-entering the
  /// transmit path this may be called from).
  void dispatch(int seed_egress);

  std::uint32_t active_prios_ = 0;  // bitmask: priorities ever seen
  SwitchArch arch_ = SwitchArch::kOutputQueuedFifo;
  // Route table, flattened: per-dst (offset, count) into one contiguous
  // candidate array — route_for reads two adjacent allocations instead of
  // chasing a heap vector per destination. Re-routing a dst appends fresh
  // slots (the orphaned old ones are build-time-bounded garbage).
  struct RouteRef {
    std::uint32_t off = 0;
    std::uint32_t n = 0;
  };
  std::vector<RouteRef> route_ref_;          // indexed by dst NodeId
  std::vector<std::int32_t> route_slots_;    // all candidate out-ports
};

}  // namespace gfc::net
