// Canned experiment scenarios covering every evaluation setup in the paper:
// the Figure 1 ring, 2-to-1 / N-to-1 incast, and fat-trees with link
// failures, plus a closed-loop run helper shared by Table 1 and Figures
// 16-18.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mech/cbd_routing.hpp"
#include "runner/fabric.hpp"
#include "stats/deadlock.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/scenario_gen.hpp"
#include "workload/empirical.hpp"

namespace gfc::runner {

/// Figure 1 / Sec 6.1: N-switch ring, one host per switch, flow i runs
/// clockwise across `hops` inter-switch links (default 2: every link then
/// carries two line-rate flows, the congestion that arms the deadlock).
struct RingScenario {
  topo::Topology topo;
  topo::RingInfo info;
  std::unique_ptr<Fabric> fabric;
  std::vector<net::FlowId> flows;
  /// Filled when cfg.fc.cbd_free_routing replaced the clockwise routing.
  mech::RoutingStats route_stats;
};
RingScenario make_ring(const ScenarioConfig& cfg, int n_switches = 3,
                       int hops = 2);

/// N senders, one receiver, one switch (Figure 5 with n = 2, Figure 20
/// with n = 8). size < 0 means permanent flows.
struct IncastScenario {
  topo::Topology topo;
  topo::DumbbellInfo info;
  std::unique_ptr<Fabric> fabric;
  std::vector<net::FlowId> flows;
  /// Filled when cfg.fc.cbd_free_routing replaced the shortest paths.
  mech::RoutingStats route_stats;
};
IncastScenario make_incast(const ScenarioConfig& cfg, int n_senders,
                           std::int64_t flow_size = net::Flow::kUnbounded);

/// Fat-tree with an explicit failure set, shortest-path-first routing.
struct FatTreeScenario {
  topo::Topology topo;
  topo::FatTreeInfo info;
  topo::RoutingTable routing;
  std::vector<topo::LinkIndex> failed_links;
  bool cbd_prone = false;
  std::unique_ptr<Fabric> fabric;
  /// Filled when cfg.fc.cbd_free_routing replaced the shortest paths.
  mech::RoutingStats route_stats;
};
FatTreeScenario make_fattree(const ScenarioConfig& cfg, int k,
                             const std::vector<topo::LinkIndex>& failures = {});

/// Fat-tree with random failures (each switch link down with `fail_prob`,
/// hosts kept connected), as in Sec 6.2.3.
FatTreeScenario make_random_fattree(const ScenarioConfig& cfg, int k,
                                    double fail_prob, std::uint64_t topo_seed);

/// Closed-loop empirical-workload run over a fat-tree scenario.
struct RunSummary {
  bool deadlocked = false;
  sim::TimePs deadlock_at = -1;
  /// True when DeadlockOptions::stop_on_detect halted the run early; the
  /// simulated clock then stops at `ended_at` < the requested duration.
  bool stopped_on_deadlock = false;
  sim::TimePs ended_at = 0;
  double per_host_gbps = 0.0;   // paper's "average available bandwidth"
  double mean_slowdown = 0.0;   // paper's Figure 17 metric
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t lossless_violations = 0;
  // Deadlock-recovery accounting (nonzero only with recover_deadlock):
  int deadlock_detections = 0;
  int deadlock_recoveries = 0;
  std::uint64_t recovered_packets = 0;
  // DCFIT in-band detection accounting (nonzero only under FcKind::kDcfit;
  // see mech::collect_dcfit):
  int mech_detections = 0;
  int mech_false_positives = 0;
  std::uint64_t mech_packets_sacrificed = 0;
  int mech_bypasses = 0;
  sim::TimePs mech_first_detection_latency = -1;
  // Fault-aware static analysis (nonzero/nonempty only when the fabric ran
  // with preflight enabled or cfg.witness_check):
  /// Verdicts issued by install_routing (1 initial + 1 per mid-run reroute).
  int analyze_reverdicts = 0;
  /// The verdict current at the end of the run ("" when analysis is off).
  std::string analyze_verdict;
  /// Runtime deadlock witnesses cross-checked against the static
  /// enumeration (each one found missing throws out of the run instead).
  int witness_checks = 0;
};
struct RunOptions {
  sim::TimePs duration = sim::ms(20);
  sim::TimePs warmup = sim::ms(1);  // excluded from bandwidth averaging
  std::uint64_t workload_seed = 42;
  bool stop_on_deadlock = true;
  /// Drain-and-reset confirmed deadlock cycles instead of latching/stopping
  /// (DeadlockOptions::recover); overrides stop_on_deadlock.
  bool recover_deadlock = false;
  /// When non-empty and the fabric has a tracer, every confirmed deadlock
  /// detection dumps the per-node pre-stall event windows here
  /// (trace::write_flight_dump format).
  std::string flight_dump_path;
  workload::FlowSizeCdf sizes = workload::FlowSizeCdf::enterprise();
};
RunSummary run_closed_loop(FatTreeScenario& scenario, const RunOptions& opts);

/// "s0:2 -> s3:1 -> ..." — the detector's witness cycle with node names,
/// used as the flight-dump reason line.
std::string describe_cycle(const stats::DeadlockDetector& det,
                           net::Network& net);

/// Soundness oracle: map the detector's witness cycle — (node, egress
/// port) pairs — to directed topology links, canonicalize, and require
/// membership in the fabric's current static cycle enumeration. Returns
/// true when the check ran and passed; false when it was skipped (no
/// analysis attached, empty witness, truncated enumeration — membership
/// in a prefix proves nothing — or a hop that isn't switch-to-switch).
/// Throws std::runtime_error when the cycle is missing: a runtime
/// deadlock the static analyzer failed to predict means the analyzer is
/// unsound, and that must never pass silently.
bool check_witness_cycle(Fabric& fabric, const stats::DeadlockDetector& det);

}  // namespace gfc::runner
