// gfc_sweep: empirical safety-bound sweep over B_m x tau x rate.
//
// Replaces the ad-hoc single-point loop of the old parameter explorer
// with a real campaign: for every (link rate, buffer, wire length) grid
// point and every GFC variant, derive the paper-compliant parameters
// (Theorems 4.1 / 5.1, the B_1 constraint) via FcSetup::try_derive and —
// when the bound leaves a positive threshold — run the Figure-1 ring
// (every link carrying two line-rate flows, the congestion that arms the
// deadlock) and check the theorems' promises empirically: no deadlock, no
// lossless violation, peak ingress occupancy within the buffer. Grid
// points whose buffer is too small for the bound are reported infeasible
// and skipped. Exits nonzero if any feasible point is unsafe.
//
//   ./build/bench/gfc_sweep [--quick] [--jobs N] [--json PATH]
#include "bench_common.hpp"
#include "exp/cli.hpp"
#include "exp/worker_pool.hpp"

using namespace gfc;
using namespace gfc::runner;

namespace {

struct SweepPoint {
  FcKind kind;
  double rate_gbps;
  std::int64_t buffer;
  double wire_m;
};

exp::TrialResult run_point(const SweepPoint& pt, sim::TimePs duration,
                           analyze::PreflightMode preflight, bool cbd_free) {
  ScenarioConfig cfg;
  cfg.preflight = preflight;
  cfg.link.rate = sim::gbps(pt.rate_gbps);
  cfg.link.prop_delay = sim::ns(pt.wire_m / 0.2);  // ~2e8 m/s on the wire
  cfg.switch_buffer = pt.buffer;
  const sim::TimePs tau = cfg.tau();

  exp::TrialResult out;
  out.add("tau_us", sim::to_us(tau));
  const auto fc = FcSetup::try_derive(pt.kind, pt.buffer, cfg.link.rate, tau);
  out.add("feasible", fc.has_value());
  if (!fc) return out;  // bound <= 0: nothing to simulate
  cfg.fc = *fc;
  cfg.fc.cbd_free_routing = cbd_free;
  out.add("threshold_b", cfg.fc.kind == FcKind::kGfcBuffer ? cfg.fc.b1
                                                           : cfg.fc.b0);

  RingScenario s = make_ring(cfg);
  net::Network& net = s.fabric->net();
  stats::DeadlockDetector det(net);
  std::int64_t peak_queue = 0;
  stats::PeriodicProbe probe(net.sched(), sim::us(50), [&](sim::TimePs) {
    const int n = static_cast<int>(s.info.switches.size());
    for (int i = 0; i < n; ++i) {
      const auto sw = s.info.switches[static_cast<std::size_t>(i)];
      peak_queue = std::max(
          peak_queue, s.fabric->ingress_queue_bytes(
                          sw, s.info.hosts[static_cast<std::size_t>(i)]));
      peak_queue = std::max(
          peak_queue,
          s.fabric->ingress_queue_bytes(
              sw, s.info.switches[static_cast<std::size_t>((i + n - 1) % n)]));
    }
  });
  net.run_until(duration);

  const auto violations = net.counters().lossless_violations;
  const bool safe = !det.deadlocked() && violations == 0 &&
                    peak_queue <= pt.buffer;
  out.add("deadlocked", det.deadlocked());
  out.add("violations", violations);
  out.add("peak_queue_b", peak_queue);
  out.add("safe", safe);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  bench::header("GFC safety-bound sweep: B_m x tau x rate vs Theorems 4.1/5.1",
                "Theorems 4.1/5.1, Sec 4.2/5.4 bounds");

  const std::vector<exp::Value> rates =
      cli.quick ? std::vector<exp::Value>{10.0, 40.0}
                : std::vector<exp::Value>{10.0, 25.0, 40.0};
  const std::vector<exp::Value> buffers_kb =
      cli.quick ? std::vector<exp::Value>{std::int64_t{100}, std::int64_t{300}}
                : std::vector<exp::Value>{std::int64_t{100}, std::int64_t{200},
                                          std::int64_t{300}};
  const std::vector<exp::Value> wires_m =
      cli.quick ? std::vector<exp::Value>{100.0}
                : std::vector<exp::Value>{5.0, 100.0, 500.0};
  const sim::TimePs duration = cli.quick ? sim::ms(4) : sim::ms(10);

  const FcKind kinds[] = {FcKind::kGfcBuffer, FcKind::kGfcTime,
                          FcKind::kGfcConceptual};

  exp::Grid grid;
  grid.axis("fc", {"GFC-buffer", "GFC-time", "GFC-conceptual"});
  grid.axis("rate_gbps", rates);
  grid.axis("buffer_kb", buffers_kb);
  grid.axis("wire_m", wires_m);

  exp::Campaign campaign;
  campaign.name = "gfc_sweep";
  for (const exp::ParamSet& p : grid.points()) {
    SweepPoint pt;
    const std::string& fc = p.find("fc")->as_string();
    pt.kind = fc == "GFC-buffer" ? kinds[0]
              : fc == "GFC-time" ? kinds[1]
                                 : kinds[2];
    pt.rate_gbps = p.find("rate_gbps")->as_double();
    pt.buffer = p.find("buffer_kb")->as_int() * 1000;
    pt.wire_m = p.find("wire_m")->as_double();
    std::string name = fc + "/" +
                       std::to_string(static_cast<int>(pt.rate_gbps)) + "G/" +
                       std::to_string(pt.buffer / 1000) + "KB/" +
                       std::to_string(static_cast<int>(pt.wire_m)) + "m";
    const analyze::PreflightMode preflight = cli.preflight;
    const bool cbd_free = cli.cbd_free_routing;
    campaign.add(std::move(name), p,
                 [pt, duration, preflight, cbd_free] {
                   return run_point(pt, duration, preflight, cbd_free);
                 });
  }

  const exp::CampaignResult result = exp::run_campaign_cli(campaign, cli);

  result.print_report();
  int feasible = 0, unsafe = 0, failed = 0;
  for (const auto& t : result.trials) {
    if (!t.ok()) {
      ++failed;
      continue;
    }
    if (!t.metrics.find("feasible")->as_bool()) continue;
    ++feasible;
    if (!t.metrics.find("safe")->as_bool()) ++unsafe;
  }
  std::printf("\n%d grid points: %d feasible, %d unsafe, %d infeasible "
              "(bound <= 0, skipped), %d failed\n",
              static_cast<int>(result.trials.size()), feasible, unsafe,
              static_cast<int>(result.trials.size()) - feasible - failed,
              failed);
  std::printf("Theorems 4.1/5.1 promise: every feasible point runs "
              "deadlock-free, loss-free,\nwith the queue inside the buffer "
              "-- 'unsafe' must be 0.\n");

  const int status = exp::finish_cli(cli, result);
  if (unsafe != 0 || result.failures() > 0) return 1;
  return status;
}
