// Fabric: realize an abstract Topology as a live Network with the chosen
// flow-control mechanism attached to every node. Topology node indices and
// net::NodeId values coincide by construction.
#pragma once

#include <memory>

#include "exp/progress.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "runner/config.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace gfc::analyze {
class IncrementalAnalyzer;
struct Report;
}  // namespace gfc::analyze

namespace gfc::runner {

/// Build the flow-control module configured in `cfg` (one fresh instance
/// per node).
std::unique_ptr<net::FcModule> make_fc_module(const ScenarioConfig& cfg);

class Fabric {
 public:
  Fabric(const topo::Topology& topo, const ScenarioConfig& cfg);
  ~Fabric();  // out-of-line: analyze::IncrementalAnalyzer is incomplete here

  net::Network& net() { return net_; }
  const ScenarioConfig& config() const { return cfg_; }

  net::HostNode& host(topo::NodeIndex i) { return *net_.host(i); }
  net::SwitchNode& sw(topo::NodeIndex i) { return *net_.sw(i); }

  /// Port index on `from` of the (up) link toward `to`; -1 if absent.
  /// Answered from the Network's wiring (first matching port).
  int port_to(topo::NodeIndex from, topo::NodeIndex to) const;

  /// Inverse of port_to: the node `node`'s `port` leads to; -1 if absent.
  /// (How deadlock witness cycles — (node, egress port) pairs — are mapped
  /// back to directed topology links for the static cross-check.)
  topo::NodeIndex peer_of(topo::NodeIndex node, int port) const;

  /// The current static analysis, refreshed by install_routing whenever
  /// cfg.preflight != kOff or cfg.witness_check; null before the first
  /// install (or when both are off).
  const analyze::Report* analysis() const;

  /// How many verdicts install_routing has issued (1 for the initial
  /// install, +1 per mid-run reroute).
  int analysis_reverdicts() const { return reverdicts_; }

  /// Translate a next-hop-node routing table into per-switch port routes.
  void install_routing(const topo::Topology& topo,
                       const topo::RoutingTable& routing);

  /// Ingress occupancy at switch `at` for the link arriving from `from`.
  std::int64_t ingress_queue_bytes(topo::NodeIndex at, topo::NodeIndex from,
                                   int prio = 0);

  /// The GFC rate currently programmed on `node`'s egress toward `toward`
  /// (line rate for non-GFC mechanisms or ungated ports).
  sim::Rate egress_rate(topo::NodeIndex node, topo::NodeIndex toward,
                        int prio = 0);

  /// The installed fault plan (null when cfg.fault has no enabled rates).
  fault::FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// The installed tracer (null unless cfg.trace.enabled).
  trace::Tracer* tracer() { return tracer_.get(); }

  /// Node-id -> topo-name resolver for the trace exporters.
  trace::NodeNameFn node_name_fn();

 private:
  ScenarioConfig cfg_;
  /// Watchdog beacon timer (see exp/progress.hpp): armed only when the
  /// constructing thread has a campaign ProgressSink installed.
  sim::TimerId progress_timer_;
  /// Declared before net_ so the tracer outlives every node's teardown.
  std::unique_ptr<trace::Tracer> tracer_;
  net::Network net_;
  /// Declared after net_: the plan unhooks itself before the network dies.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  /// Fault-aware incremental re-analysis (see src/analyze/incremental.hpp):
  /// created lazily by the first install_routing that wants a verdict, fed
  /// a fresh report on every reroute. The analyzed topology must outlive
  /// the fabric (scenario runners keep it on their RunContext).
  std::unique_ptr<analyze::IncrementalAnalyzer> analyzer_;
  const topo::Topology* analyzed_topo_ = nullptr;
  int reverdicts_ = 0;
};

}  // namespace gfc::runner
