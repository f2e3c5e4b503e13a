// GFC as a safeguard under end-to-end congestion control (paper Sec 7):
// 8-to-1 incast with DCQCN; GFC caps the transient, DCQCN owns the steady
// state. Prints the three curves of Figure 20.
//
//   ./build/examples/example_dcqcn_interaction > fig20.csv
#include <cstdio>

#include "cc/dcqcn.hpp"
#include "runner/scenarios.hpp"
#include "stats/probe.hpp"

using namespace gfc;

int main() {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = 300'000;
  cfg.arch = net::SwitchArch::kCioqRoundRobin;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate,
                                   cfg.tau());
  cfg.ecn.threshold = 40'000;
  auto s = runner::make_incast(cfg, 8);
  net::Network& net = s.fabric->net();

  cc::DcqcnConfig dc;
  dc.alpha_init = 0.5;
  auto dcqcn = std::make_unique<cc::DcqcnModule>(net, dc);
  cc::DcqcnModule* cc_mod = dcqcn.get();
  net.set_cc(std::move(dcqcn));
  for (const net::FlowId f : s.flows) cc_mod->on_flow_start(net.flow(f));

  std::printf("t_us,queue_B,dcqcn_rate_gbps,gfc_rate_gbps\n");
  stats::PeriodicProbe probe(net.sched(), sim::us(50), [&](sim::TimePs now) {
    std::printf("%.1f,%lld,%.4f,%.4f\n", sim::to_us(now),
                static_cast<long long>(s.fabric->ingress_queue_bytes(
                    s.info.sw, s.info.senders[0])),
                cc_mod->current_rate(s.flows[0]).gbps(),
                s.fabric->egress_rate(s.info.senders[0], s.info.sw).gbps());
  });
  net.run_until(sim::ms(8));
  std::fprintf(stderr, "CNPs sent: %llu, violations: %llu\n",
               static_cast<unsigned long long>(cc_mod->cnps_sent()),
               static_cast<unsigned long long>(
                   net.counters().lossless_violations));
  return 0;
}
