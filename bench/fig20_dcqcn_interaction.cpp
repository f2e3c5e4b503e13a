// Figure 20: interaction between GFC and DCQCN on the 8-to-1 dumbbell.
// Monitors (1) the ingress queue of the switch port facing H1, (2) H1's
// DCQCN flow rate, (3) the GFC-programmed rate on H1's output queue.
// Expected: GFC rapidly caps the port at 1.25 Gb/s during the incast
// transient; DCQCN then converges below that and owns the steady state
// (GFC effectively disabled — a safeguard, not a co-controller).
#include "bench_common.hpp"

#include "cc/dcqcn.hpp"

using namespace gfc;
using namespace gfc::runner;

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  bench::header("Figure 20: GFC x DCQCN interaction (8-to-1 incast)",
                "Fig. 20, Sec 7");
  ScenarioConfig cfg;
  cfg.preflight = cli.preflight;
  cfg.switch_buffer = 300'000;
  cfg.arch = net::SwitchArch::kCioqRoundRobin;
  cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                           cfg.link.rate, cfg.tau());
  cfg.ecn.threshold = 40'000;
  auto s = make_incast(cfg, 8);
  net::Network& net = s.fabric->net();
  cc::DcqcnConfig dc;
  dc.alpha_init = 0.5;
  dc.g = 1.0 / 256;
  dc.cnp_interval = sim::us(50);
  dc.alpha_timer = sim::us(55);
  dc.increase_timer = sim::us(55);
  auto dcqcn = std::make_unique<cc::DcqcnModule>(net, dc);
  cc::DcqcnModule* cc_mod = dcqcn.get();
  net.set_cc(std::move(dcqcn));
  for (net::FlowId f : s.flows) cc_mod->on_flow_start(net.flow(f));

  stats::TimeSeries queue_kb, dcqcn_rate, gfc_rate;
  stats::PeriodicProbe probe(net.sched(), sim::us(50), [&](sim::TimePs now) {
    queue_kb.add(now, static_cast<double>(s.fabric->ingress_queue_bytes(
                          s.info.sw, s.info.senders[0])) /
                          1000.0);
    dcqcn_rate.add(now, cc_mod->current_rate(s.flows[0]).gbps());
    gfc_rate.add(now,
                 s.fabric->egress_rate(s.info.senders[0], s.info.sw).gbps());
  });
  net.run_until(sim::ms(8));

  std::printf("\n%10s %12s %12s %12s\n", "t_us", "queue_KB", "DCQCN_Gbps",
              "GFC_Gbps");
  for (std::size_t i = 0; i < queue_kb.points.size(); i += 4)
    std::printf("%10.1f %12.1f %12.3f %12.3f\n",
                sim::to_us(queue_kb.points[i].first),
                queue_kb.points[i].second, dcqcn_rate.points[i].second,
                gfc_rate.points[i].second);

  const double min_gfc = [&] {
    double m = 100;
    for (const auto& [t, v] : gfc_rate.points) m = std::min(m, v);
    return m;
  }();
  std::printf("\nGFC engaged down to %.3f Gb/s during the transient "
              "(paper: 1.25 Gb/s).\n", min_gfc);
  std::printf("Steady state: DCQCN rate %.3f Gb/s < GFC rate %.3f Gb/s "
              "(GFC disabled; paper shape).\n",
              dcqcn_rate.last(), gfc_rate.last());
  std::printf("Lossless violations: %llu\n",
              static_cast<unsigned long long>(
                  net.counters().lossless_violations));
  return 0;
}
