// Network: owner of the scheduler, packet pool, nodes (whose egress ports
// hold the wires), flows and the pluggable congestion-control module. The
// single place experiments talk to.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fc_module.hpp"
#include "net/flow.hpp"
#include "net/host.hpp"
#include "net/node.hpp"
#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace gfc::net {

class ControlFaultHook;

/// Receives every data-packet delivery at any host (throughput samplers).
class DeliveryListener {
 public:
  virtual ~DeliveryListener() = default;
  virtual void on_delivery(const Packet& pkt, sim::TimePs now) = 0;
};

struct Counters {
  std::uint64_t lossless_violations = 0;  // ingress buffer exceeded capacity
  std::uint64_t route_drops = 0;          // unroutable packets (config bug)
  std::uint64_t data_packets_delivered = 0;
  std::int64_t data_bytes_delivered = 0;
  std::uint64_t control_frames_sent = 0;
  std::uint64_t flows_completed = 0;
  // Runtime-fault accounting (all zero unless faults are injected):
  std::uint64_t wire_lost_packets = 0;   // in flight when the link went down
  std::uint64_t failover_drops = 0;      // stranded on a dead egress, no route
};

class Network {
 public:
  Network();
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Scheduler& sched() { return sched_; }
  PacketPool& pool() { return pool_; }
  sim::Rng& rng() { return rng_; }
  void reseed(std::uint64_t seed) { rng_ = sim::Rng(seed); }

  // --- construction -------------------------------------------------------
  SwitchNode& add_switch(std::string name, std::int64_t ingress_buffer_bytes);
  HostNode& add_host(std::string name);

  /// Wire a full-duplex link: creates one port on each node, each sending
  /// on the wire to the other. Returns {port index on a, port index on b}.
  std::pair<int, int> connect(NodeId a, NodeId b, sim::Rate rate,
                              sim::TimePs prop_delay);

  /// First port on `from` whose peer is `to`; -1 when not adjacent.
  int find_port(NodeId from, NodeId to) const;

  /// Take the full-duplex a<->b link down or up at the current instant.
  /// Down: both directions stop accepting transmissions, packets already
  /// propagating are lost on arrival, and hold-and-wait probing ignores the
  /// dead ports (a failed link is not a flow-control wait). Up: both ports
  /// are kicked. Queued packets stay put; call reroute_stranded() after
  /// updating routing to move them.
  void set_link_state(NodeId a, NodeId b, bool up);

  /// Ask every switch to re-route packets queued behind dead egress ports
  /// (drops the unroutable ones into Counters::failover_drops).
  void reroute_stranded();

  Node& node(NodeId id) { return *nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(NodeId id) const { return *nodes_[static_cast<std::size_t>(id)]; }
  std::size_t node_count() const { return nodes_.size(); }
  HostNode* host(NodeId id);
  SwitchNode* sw(NodeId id);

  // --- flows ---------------------------------------------------------------
  /// Register a flow; it starts automatically at `start_time`.
  Flow& create_flow(NodeId src, NodeId dst, std::uint8_t priority,
                    std::int64_t size_bytes, sim::TimePs start_time);
  Flow& flow(FlowId id) { return flows_[static_cast<std::size_t>(id)]; }
  const Flow& flow(FlowId id) const { return flows_[static_cast<std::size_t>(id)]; }
  std::size_t flow_count() const { return flows_.size(); }

  // --- modules -------------------------------------------------------------
  void set_cc(std::unique_ptr<CcModule> cc) { cc_ = std::move(cc); }
  CcModule* cc() { return cc_.get(); }

  /// Feedback processing latency t_r applied to every link-control frame on
  /// receipt (also absorbs testbed-style software padding of tau).
  void set_control_delay(sim::TimePs d) { control_delay_ = d; }
  sim::TimePs control_delay() const { return control_delay_; }

  /// Install (or clear) the runtime fault hook egress ports consult for
  /// every link-control frame they put on the wire. Not owned; the
  /// installer must outlive use or clear it. Null (the default) keeps the
  /// wire perfect.
  void set_fault_hook(ControlFaultHook* hook) { fault_hook_ = hook; }
  ControlFaultHook* fault_hook() { return fault_hook_; }

  // --- observation ----------------------------------------------------------
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Install (or clear) the binary tracer. Not owned (runner::Fabric owns
  /// it); one tracer per network — campaigns run many sims concurrently, so
  /// there is deliberately no global. Null (the default) disables tracing.
  void set_tracer(trace::Tracer* t) { tracer_ = t; }
  trace::Tracer* tracer() { return tracer_; }

  /// Hot-path trace hook. With no tracer installed this is one predictable
  /// branch; arguments are values the caller already holds.
  void trace_event(trace::EventType type, std::int32_t node, std::int32_t port,
                   std::int32_t prio, std::uint64_t id, std::int64_t value) {
    if (tracer_ == nullptr) return;
    tracer_->record(type, sched_.now(), node, port, prio, id, value);
  }

  void add_delivery_listener(DeliveryListener* l) { delivery_listeners_.push_back(l); }
  void add_completion_listener(std::function<void(Flow&)> fn) {
    completion_listeners_.push_back(std::move(fn));
  }

  void notify_delivery(const Packet& pkt);
  void notify_completion(Flow& flow);

  void free_packet(Packet* pkt) { pool().release(pkt); }

  /// Advance the simulation to `t` (see Scheduler::run_until).
  void run_until(sim::TimePs t) { sched_.run_until(t); }

  std::uint64_t executed_events() const { return sched_.executed_events(); }
  std::uint64_t packets_created() const { return pool_.total_created(); }

 private:
  template <typename NodeT, typename... Args>
  NodeT& emplace_node(Args&&... args);

  sim::Scheduler sched_;
  PacketPool pool_;
  sim::Rng rng_{0x9FC0DE5EEDull};
  std::vector<std::unique_ptr<Node>> nodes_;
  std::deque<Flow> flows_;  // deque: stable Flow& across mid-run create_flow
  std::unique_ptr<CcModule> cc_;
  ControlFaultHook* fault_hook_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  sim::TimePs control_delay_ = 0;
  Counters counters_;
  std::vector<DeliveryListener*> delivery_listeners_;
  std::vector<std::function<void(Flow&)>> completion_listeners_;
};

}  // namespace gfc::net
