// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/cli.hpp"
#include "runner/scenarios.hpp"
#include "stats/probe.hpp"
#include "stats/throughput.hpp"
#include "trace/export.hpp"

namespace gfc::bench {

inline void header(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n  (reproduces %s)\n", what, paper_ref);
  std::printf("==============================================================\n");
}

/// Print a (time, value) series as aligned columns.
inline void print_series(const char* name, const char* unit,
                         const stats::TimeSeries& ts, std::size_t stride = 1) {
  std::printf("# %s [%s]\n", name, unit);
  std::printf("%12s %14s\n", "t_us", name);
  for (std::size_t i = 0; i < ts.points.size(); i += stride)
    std::printf("%12.1f %14.3f\n", sim::to_us(ts.points[i].first),
                ts.points[i].second);
}

/// Per-run trace artifact paths; an empty member skips that artifact.
struct TraceArtifacts {
  std::string chrome_json;
  std::string csv;
  std::string flight_dump;
};

/// The standard artifact triple for a run named `base` under the CLI's
/// --trace-out directory: <base>.trace.json / .trace.csv / .flight.txt.
/// All-empty (= no exports) when --trace was not given.
inline TraceArtifacts trace_artifacts_for(const exp::CliOptions& cli,
                                          const std::string& base) {
  TraceArtifacts a;
  if (!cli.trace) return a;
  a.chrome_json = cli.trace_artifact(base, "trace.json");
  a.csv = cli.trace_artifact(base, "trace.csv");
  a.flight_dump = cli.trace_artifact(base, "flight.txt");
  return a;
}

/// Export a finished run's trace ring per `art`. Export failures warn on
/// stderr but never fail the benchmark.
inline void export_trace(runner::Fabric& fabric, const TraceArtifacts& art) {
  const trace::Tracer* tr = fabric.net().tracer();
  if (tr == nullptr) return;
  std::string err;
  if (!art.chrome_json.empty() &&
      !trace::export_chrome_json(art.chrome_json, tr->buffer(),
                                 fabric.node_name_fn(), &err))
    std::fprintf(stderr, "trace export: %s\n", err.c_str());
  if (!art.csv.empty() && !trace::export_csv(art.csv, tr->buffer(), &err))
    std::fprintf(stderr, "trace export: %s\n", err.c_str());
}

/// Ring trace: queue length of the H1-facing port at S1 plus the
/// host-programmed input rate, sampled every `period` (Figs 5/9/10 style).
struct RingTrace {
  stats::TimeSeries queue_kb;
  stats::TimeSeries rate_gbps;
  bool deadlocked = false;
  sim::TimePs deadlock_at = -1;
  double tail_gbps_per_host = 0;
  std::uint64_t violations = 0;
};

inline RingTrace trace_ring(const runner::ScenarioConfig& cfg,
                            sim::TimePs duration, sim::TimePs sample = sim::us(100),
                            const TraceArtifacts* artifacts = nullptr) {
  runner::RingScenario s = runner::make_ring(cfg);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockOptions dl_opts;
  if (artifacts != nullptr)
    runner::arm_flight_dump(&dl_opts, *s.fabric, artifacts->flight_dump);
  stats::DeadlockDetector det(net, dl_opts);
  RingTrace out;
  stats::PeriodicProbe probe(net.sched(), sample, [&](sim::TimePs now) {
    out.queue_kb.add(now, static_cast<double>(s.fabric->ingress_queue_bytes(
                              s.info.switches[1], s.info.hosts[1])) /
                              1000.0);
    out.rate_gbps.add(
        now, s.fabric->egress_rate(s.info.hosts[1], s.info.switches[1]).gbps());
  });
  net.run_until(duration);
  out.deadlocked = det.deadlocked();
  out.deadlock_at = det.detected_at();
  out.tail_gbps_per_host = tp.average_gbps(0, duration * 3 / 4, duration) / 3.0;
  out.violations = net.counters().lossless_violations;
  if (artifacts != nullptr) export_trace(*s.fabric, *artifacts);
  return out;
}

inline void print_ring_summary(const char* label, const RingTrace& t) {
  std::printf("%-14s deadlock=%-3s %-12s tail throughput/host=%5.2f Gb/s  "
              "final queue=%6.1f KB  final rate=%5.2f Gb/s  violations=%llu\n",
              label, t.deadlocked ? "YES" : "no",
              t.deadlocked ? ("@" + sim::format_time(t.deadlock_at)).c_str() : "",
              t.tail_gbps_per_host, t.queue_kb.last(), t.rate_gbps.last(),
              static_cast<unsigned long long>(t.violations));
}

/// One side of a Figure 11 fat-tree case study: report label, flow
/// control and switch architecture.
struct CaseMechanism {
  const char* label;
  runner::FcSetup fc;
  net::SwitchArch arch;
};

namespace detail {

struct CaseRun {
  std::vector<stats::TimeSeries> flow_gbps;
  bool deadlocked = false;
  sim::TimePs deadlock_at = -1;
};

inline CaseRun run_case(const topo::Fig11Case& c, const CaseMechanism& m,
                        sim::TimePs duration,
                        analyze::PreflightMode preflight) {
  runner::ScenarioConfig cfg;
  cfg.preflight = preflight;
  cfg.switch_buffer = 300'000;
  cfg.arch = m.arch;
  cfg.fc = m.fc;
  auto s = runner::make_fattree(cfg, 4, c.failed_links);
  net::Network& net = s.fabric->net();
  std::vector<net::FlowId> flows;
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    net::Flow& flow = net.create_flow(c.flows[f].first, c.flows[f].second, 0,
                                      net::Flow::kUnbounded, 0);
    flow.path_salt = c.salts[f];
    flows.push_back(flow.id);
  }
  stats::ThroughputSampler tp(net, sim::us(100),
                              stats::ThroughputSampler::Key::kPerFlow);
  stats::DeadlockDetector det(net);
  CaseRun out;
  out.flow_gbps.resize(flows.size());
  stats::PeriodicProbe probe(net.sched(), sim::us(200), [&](sim::TimePs now) {
    for (std::size_t f = 0; f < flows.size(); ++f)
      out.flow_gbps[f].add(
          now, tp.average_gbps(flows[f], now - sim::us(200), now));
  });
  net.run_until(duration);
  out.deadlocked = det.deadlocked();
  out.deadlock_at = det.detected_at();
  return out;
}

inline void report_case(const char* label, const CaseRun& r,
                        sim::TimePs duration) {
  std::printf("\n--- %s ---\n", label);
  std::printf("deadlock: %s%s\n", r.deadlocked ? "YES " : "no",
              r.deadlocked ? sim::format_time(r.deadlock_at).c_str() : "");
  static const char* kFlowNames[] = {"F1 H0->H8", "F2 H4->H12", "F3 H9->H1",
                                     "F4 H13->H5"};
  for (std::size_t f = 0; f < r.flow_gbps.size(); ++f)
    std::printf("  %-11s tail throughput = %5.2f Gb/s\n", kFlowNames[f],
                r.flow_gbps[f].mean(duration * 3 / 4, duration));
}

}  // namespace detail

/// The Figure 11 case study behind Figs 12 and 13: a k=4 fat-tree with
/// three failed links, per-flow throughput under a baseline and under GFC.
/// The failure set and flow paths come from a deterministic search: the
/// four paper flows (H0->H8, H4->H12, H9->H1, H13->H5) must form a >=4-hop
/// agg/core CBD with every cycle link oversubscribed. Buffer 300 KB, 10G
/// links, 1 us propagation. Returns main's exit status.
inline int fig11_case_study(int argc, char** argv, const char* title,
                            const char* paper_ref,
                            const CaseMechanism& baseline,
                            const CaseMechanism& gfc) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  header(title, paper_ref);
  // --quick: 6 ms instead of 20 (the baseline deadlocks by ~3-4 ms; see
  // EXPERIMENTS.md) so CI can smoke-run the full pipeline.
  const sim::TimePs duration = cli.quick ? sim::ms(6) : sim::ms(20);
  topo::Topology t;
  const auto ft = topo::build_fattree(t, 4);
  const auto cases = topo::find_fig11_cases(t, ft, 1);
  if (cases.empty()) {
    std::printf("no qualifying 3-failure case found\n");
    return 1;
  }
  const auto& c = cases.front();
  std::printf("failed links:");
  for (auto l : c.failed_links)
    std::printf(" %s-%s", t.node(t.link(l).a).name.c_str(),
                t.node(t.link(l).b).name.c_str());
  std::printf("\nCBD cycle:");
  for (const auto& [a, b] : c.cbd.cycle)
    std::printf(" %s->%s", t.node(a).name.c_str(), t.node(b).name.c_str());
  std::printf("\n");

  for (const CaseMechanism* m : {&baseline, &gfc})
    detail::report_case(m->label,
                        detail::run_case(c, *m, duration, cli.preflight),
                        duration);

  std::printf("\nPaper shape: %s flows all collapse to 0 (deadlock); GFC "
              "flows each hold their 5 Gb/s share.\n",
              runner::fc_name(baseline.fc.kind));
  return 0;
}

}  // namespace gfc::bench
