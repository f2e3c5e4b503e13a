#include "runner/scenarios.hpp"

#include <cassert>
#include <stdexcept>

#include "analyze/analyze.hpp"
#include "mech/dcfit.hpp"
#include "stats/flow_stats.hpp"
#include "stats/throughput.hpp"
#include "workload/generator.hpp"

namespace gfc::runner {
namespace {

/// The scenarios' routing policy: the up*/down* CBD-free tables when
/// cfg.fc.cbd_free_routing is set (filling *stats), shortest-path ECMP
/// otherwise. The ring pins its clockwise routes instead of the latter.
topo::RoutingTable scenario_routes(const ScenarioConfig& cfg,
                                   const topo::Topology& topo,
                                   mech::RoutingStats* stats) {
  return cfg.fc.cbd_free_routing ? mech::cbd_free_routes(topo, stats)
                                 : topo::compute_shortest_paths(topo);
}

}  // namespace

void FatTreeScenario::reroute() {
  routing = scenario_routes(fabric->config(), topo, &route_stats);
  fabric->install_routing(topo, routing);
}

RingScenario make_ring(const ScenarioConfig& cfg, int n_switches, int hops) {
  assert(hops >= 1 && hops < n_switches);
  RingScenario s;
  s.info = topo::build_ring(s.topo, n_switches);
  s.fabric = std::make_unique<Fabric>(s.topo, cfg);
  // The clockwise pinning *is* the Figure 1 deadlock; a CBD-free request
  // replaces it with up*/down* tables (which dissolve the cycle — and the
  // scenario's point — by letting flows take the short way around).
  s.fabric->install_routing(
      s.topo, cfg.fc.cbd_free_routing
                  ? mech::cbd_free_routes(s.topo, &s.route_stats)
                  : topo::ring_clockwise_routes(s.topo, s.info));
  for (int i = 0; i < n_switches; ++i) {
    const net::NodeId src = s.info.hosts[static_cast<std::size_t>(i)];
    const net::NodeId dst =
        s.info.hosts[static_cast<std::size_t>((i + hops) % n_switches)];
    s.flows.push_back(s.fabric->net()
                          .create_flow(src, dst, 0, net::Flow::kUnbounded, 0)
                          .id);
  }
  return s;
}

IncastScenario make_incast(const ScenarioConfig& cfg, int n_senders,
                           std::int64_t flow_size) {
  IncastScenario s;
  s.info = topo::build_dumbbell(s.topo, n_senders);
  s.fabric = std::make_unique<Fabric>(s.topo, cfg);
  s.fabric->install_routing(s.topo,
                            scenario_routes(cfg, s.topo, &s.route_stats));
  for (topo::NodeIndex h : s.info.senders) {
    s.flows.push_back(
        s.fabric->net().create_flow(h, s.info.receiver, 0, flow_size, 0).id);
  }
  return s;
}

FatTreeScenario make_fattree(const ScenarioConfig& cfg, int k,
                             const std::vector<topo::LinkIndex>& failures) {
  FatTreeScenario s;
  s.info = topo::build_fattree(s.topo, k);
  for (topo::LinkIndex l : failures) s.topo.fail_link(l);
  s.failed_links = failures;
  s.routing = scenario_routes(cfg, s.topo, &s.route_stats);
  s.cbd_prone = topo::cbd_prone(s.topo, s.routing);
  s.fabric = std::make_unique<Fabric>(s.topo, cfg);
  s.fabric->install_routing(s.topo, s.routing);
  return s;
}

FatTreeScenario make_random_fattree(const ScenarioConfig& cfg, int k,
                                    double fail_prob, std::uint64_t topo_seed) {
  FatTreeScenario s;
  s.info = topo::build_fattree(s.topo, k);
  sim::Rng rng(topo_seed);
  s.failed_links = topo::random_failures(s.topo, rng, fail_prob);
  s.routing = scenario_routes(cfg, s.topo, &s.route_stats);
  s.cbd_prone = topo::cbd_prone(s.topo, s.routing);
  s.fabric = std::make_unique<Fabric>(s.topo, cfg);
  s.fabric->install_routing(s.topo, s.routing);
  return s;
}

std::string describe_cycle(const stats::DeadlockDetector& det,
                           net::Network& net) {
  std::string out;
  for (const auto& [nid, port] : det.cycle()) {
    if (!out.empty()) out += " -> ";
    out += net.node(nid).name() + ":" + std::to_string(port);
  }
  return out;
}

void arm_flight_dump(stats::DeadlockOptions* opts, Fabric& fabric,
                     const std::string& path) {
  if (path.empty() || fabric.net().tracer() == nullptr) return;
  opts->on_detect = [&fabric, path](const stats::DeadlockDetector& det) {
    trace::dump_flight(path, fabric.net().tracer()->buffer(),
                       fabric.node_name_fn(),
                       "deadlock detected at " +
                           sim::format_time(det.detected_at()) +
                           "\nwitness cycle: " +
                           describe_cycle(det, fabric.net()));
  };
}

bool check_witness_cycle(Fabric& fabric, const stats::DeadlockDetector& det) {
  const analyze::Report* rep = fabric.analysis();
  if (rep == nullptr || det.cycle().empty() || rep->truncated) return false;
  // Each witness hop (node, egress port) is the directed link node ->
  // peer(node, port); the detector's wait-for edges guarantee the peer is
  // the next hop's node, so the mapped links close into a cycle.
  std::vector<topo::DirectedLink> links;
  for (const auto& [nid, port] : det.cycle()) {
    const topo::NodeIndex peer = fabric.peer_of(nid, port);
    if (peer < 0 || fabric.net().sw(peer) == nullptr) return false;
    links.push_back({static_cast<topo::NodeIndex>(nid), peer});
  }
  topo::canonicalize_cycle(&links);
  if (!analyze::report_contains_cycle(*rep, links))
    throw std::runtime_error(
        "witness cross-check failed: runtime deadlock cycle [" +
        describe_cycle(det, fabric.net()) +
        "] is missing from the static enumeration (" +
        std::to_string(rep->cycles.size()) +
        " cycles) — the analyzer is unsound for this topology/routing");
  return true;
}

RunSummary run_closed_loop(FatTreeScenario& scenario, const RunOptions& opts) {
  net::Network& net = scenario.fabric->net();
  const ScenarioConfig& cfg = scenario.fabric->config();

  // Rack = edge switch: pod-major host and edge numbering line up.
  std::vector<net::NodeId> hosts;
  std::vector<int> racks;
  for (topo::NodeIndex h : scenario.info.hosts) {
    hosts.push_back(h);
    racks.push_back(scenario.topo.rack_of(h));
  }

  stats::ThroughputSampler throughput(net, sim::us(100));
  stats::FlowStats flow_stats(net, [&](const net::Flow& flow) {
    const auto path =
        scenario.routing.trace(flow.src, flow.dst, flow.path_salt);
    const int hops = path.empty() ? 4 : static_cast<int>(path.size()) - 2;
    return stats::FlowStats::default_ideal_fct(
        flow, cfg.link.rate, hops, cfg.link.prop_delay, cfg.link.mtu);
  });
  stats::DeadlockOptions dl_opts{!opts.recover_deadlock, opts.recover_deadlock,
                                 {}};
  arm_flight_dump(&dl_opts, *scenario.fabric, opts.flight_dump_path);
  int witness_checks = 0;
  if (cfg.witness_check) {
    // Compose after the flight dump so the post-mortem is on disk before a
    // failed cross-check throws the run away.
    Fabric& fabric = *scenario.fabric;
    const auto prev = dl_opts.on_detect;
    dl_opts.on_detect = [&fabric, prev,
                         &witness_checks](stats::DeadlockDetector& det) {
      if (prev) prev(det);
      if (check_witness_cycle(fabric, det)) ++witness_checks;
    };
  }
  stats::DeadlockDetector detector(net, dl_opts);

  workload::ClosedLoopGenerator gen(net, hosts, racks, opts.sizes,
                                    sim::Rng(opts.workload_seed));
  gen.start();
  net.run_until(opts.duration);

  RunSummary out;
  out.deadlocked = detector.deadlocked();
  out.deadlock_at = detector.detected_at();
  out.ended_at = net.sched().now();
  out.stopped_on_deadlock = detector.deadlocked() && !opts.recover_deadlock;
  out.deadlock_detections = detector.detections();
  out.deadlock_recoveries = detector.recoveries();
  out.recovered_packets = detector.recovered_packets();
  out.per_host_gbps = throughput.per_host_average_gbps(
      static_cast<int>(hosts.size()), opts.warmup, opts.duration);
  out.mean_slowdown = flow_stats.mean_slowdown();
  out.flows_completed = net.counters().flows_completed;
  out.flows_started = gen.flows_started();
  out.lossless_violations = net.counters().lossless_violations;
  const mech::DcfitTotals dcfit = mech::collect_dcfit(net);
  out.mech_detections = dcfit.detections;
  out.mech_false_positives = dcfit.false_positives;
  out.mech_packets_sacrificed = dcfit.packets_sacrificed;
  out.mech_bypasses = dcfit.bypasses;
  out.mech_first_detection_latency = dcfit.first_detection_latency;
  out.analyze_reverdicts = scenario.fabric->analysis_reverdicts();
  if (const analyze::Report* rep = scenario.fabric->analysis())
    out.analyze_verdict = analyze::verdict_name(rep->verdict());
  out.witness_checks = witness_checks;
  return out;
}

}  // namespace gfc::runner
