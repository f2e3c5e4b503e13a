// Figure 18: aggregate throughput evolution in a deadlock-prone scenario.
// Closed-loop background traffic runs from t=0; at t=2 ms the CBD-filling
// flow combination (the paper's Figure-11 case: four inter-pod flows whose
// paths close a 4-hop agg/core cycle) starts. Under PFC the network
// collapses to zero shortly after; under buffer-based GFC the combination
// just takes its fair shares and the network keeps running.
#include "bench_common.hpp"

#include "workload/generator.hpp"

using namespace gfc;
using namespace gfc::runner;

namespace {

stats::TimeSeries run(FcKind kind, net::SwitchArch arch,
                      const topo::Fig11Case& c, bool with_combination,
                      bool* deadlocked, sim::TimePs* at,
                      const bench::TraceArtifacts& art = {},
                      const trace::TraceOptions& topts = {},
                      analyze::PreflightMode preflight =
                          analyze::PreflightMode::kOff) {
  ScenarioConfig cfg;
  cfg.preflight = preflight;
  cfg.switch_buffer = 300'000;
  cfg.arch = arch;
  cfg.fc = FcSetup::derive(kind, cfg.switch_buffer, cfg.link.rate, cfg.tau());
  cfg.trace = topts;
  auto s = make_fattree(cfg, 4, c.failed_links);
  net::Network& net = s.fabric->net();
  // The CBD-filling combination: four long (8 MB) inter-pod flows starting
  // at t = 2 ms. Long enough to hold the cycle through PFC's lock window;
  // finite, so under GFC "once any flow in this combination is finished,
  // the CBD is naturally broken" (Sec 6.2.3) and the network recovers.
  if (with_combination) {
    for (std::size_t f = 0; f < c.flows.size(); ++f) {
      net::Flow& flow = net.create_flow(c.flows[f].first, c.flows[f].second,
                                        0, 8'000'000, sim::ms(2));
      flow.path_salt = c.salts[f];
    }
  }
  std::vector<net::NodeId> hosts;
  std::vector<int> racks;
  for (auto h : s.info.hosts) {
    hosts.push_back(h);
    racks.push_back(s.topo.rack_of(h));
  }
  workload::ClosedLoopGenerator gen(net, hosts, racks,
                                    workload::FlowSizeCdf::enterprise(),
                                    sim::Rng(42));
  gen.start();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockOptions dl_opts;
  runner::arm_flight_dump(&dl_opts, *s.fabric, art.flight_dump);
  stats::DeadlockDetector det(net, dl_opts);
  stats::TimeSeries series;
  stats::PeriodicProbe probe(net.sched(), sim::us(100), [&](sim::TimePs now) {
    series.add(now, tp.average_gbps(0, now - sim::us(100), now));
  });
  net.run_until(sim::ms(50));
  *deadlocked = det.deadlocked();
  *at = det.detected_at();
  bench::export_trace(*s.fabric, art);
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  bench::header("Figure 18: aggregate throughput evolution", "Fig. 18");
  topo::Topology t;
  const auto ft = topo::build_fattree(t, 4);
  const auto cases = topo::find_fig11_cases(t, ft, 1);
  if (cases.empty()) return 1;
  const auto& c = cases.front();

  // With --trace each run exports its full event trace; the CSV's deliver
  // events regenerate this binary's throughput curves offline (see
  // EXPERIMENTS.md, "Fig 18 from the trace").
  const trace::TraceOptions topts = cli.trace_options();
  bool dead_pfc = false, dead_gfc = false, dead_org = false;
  sim::TimePs at_pfc = -1, at_gfc = -1, at_org = -1;
  const auto pfc = run(FcKind::kPfc, net::SwitchArch::kOutputQueuedFifo, c,
                       true, &dead_pfc, &at_pfc,
                       bench::trace_artifacts_for(cli, "fig18_pfc_comb"), topts,
                       cli.preflight);
  const auto gfc = run(FcKind::kGfcBuffer, net::SwitchArch::kCioqRoundRobin, c,
                       true, &dead_gfc, &at_gfc,
                       bench::trace_artifacts_for(cli, "fig18_gfc_comb"), topts,
                       cli.preflight);
  const auto org = run(FcKind::kGfcBuffer, net::SwitchArch::kCioqRoundRobin, c,
                       false, &dead_org, &at_org,
                       bench::trace_artifacts_for(cli, "fig18_gfc_organic"),
                       topts, cli.preflight);

  std::printf("\n%10s %12s %14s %14s\n", "t_us", "PFC+comb",
              "GFC+comb", "GFC organic");
  for (std::size_t i = 0;
       i < pfc.points.size() && i < gfc.points.size() && i < org.points.size();
       i += 10)
    std::printf("%10.1f %12.2f %14.2f %14.2f\n",
                sim::to_us(pfc.points[i].first), pfc.points[i].second,
                gfc.points[i].second, org.points[i].second);
  std::printf("\nPFC deadlock: %s at %s | GFC deadlock (either workload): "
              "%s/%s\n",
              dead_pfc ? "YES" : "no", sim::format_time(at_pfc).c_str(),
              dead_gfc ? "YES" : "no", dead_org ? "YES" : "no");
  std::printf(
      "Paper shape: PFC collapses to ~0 shortly after the CBD fills (8.5 ms\n"
      "there, ~%.1f ms here) and NEVER recovers. GFC never deadlocks: with\n"
      "the organic workload it holds steady throughout; under the sustained\n"
      "conditioned combination it degrades toward the rate floor while the\n"
      "combination persists (rates stay nonzero; no hold-and-wait).\n",
      sim::to_ms(at_pfc));
  return 0;
}
