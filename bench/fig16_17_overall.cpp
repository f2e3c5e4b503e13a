// Figures 16 & 17: overall performance with the empirical closed-loop
// workload. (a) CBD-free random scenarios: all four mechanisms deliver
// similar average available bandwidth and slowdown — GFC introduces no
// side effects. (b) deadlock-prone scenarios: PFC/CBFC collapse to zero
// bandwidth / unbounded FCT once deadlock strikes, GFC keeps working.
//
// Runs as an exp:: campaign: a cheap topology-only scan enumerates the
// qualifying seeds, then every (mechanism, seed) simulation is an
// independent trial on the worker pool (--jobs N). Printed numbers are
// identical to the historical sequential loop for any job count.
#include "bench_common.hpp"
#include "exp/cli.hpp"
#include "exp/worker_pool.hpp"

using namespace gfc;
using namespace gfc::runner;

namespace {

struct Agg {
  double bw_sum = 0, sd_sum = 0;
  int n = 0, deadlocks = 0;
  void add(bool deadlocked, double bw, double sd) {
    if (!deadlocked) {
      bw_sum += bw;
      sd_sum += sd;
      ++n;
    } else {
      ++deadlocks;
    }
  }
};

/// First `want` seeds in [1, 400) whose random 5%-failure fat-tree is
/// CBD-free (the part-(a) population; mechanism-independent).
std::vector<std::uint64_t> scan_cbd_free_seeds(int k, int want) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t seed = 1;
       static_cast<int>(out.size()) < want && seed < 400; ++seed) {
    topo::Topology t;
    topo::build_fattree(t, k);
    sim::Rng rng(seed);
    topo::random_failures(t, rng, 0.05);
    if (!topo::cbd_prone(t, topo::compute_shortest_paths(t))) out.push_back(seed);
  }
  return out;
}

/// Part-(b) population: seeds whose failure set is CBD-prone *and* whose
/// directed stress probe realizes the full cyclic flow combination.
struct ProneCase {
  std::uint64_t seed;
  std::vector<topo::LinkIndex> failed;
  std::vector<topo::CbdStress::FlowSpec> stress_flows;
};
std::vector<ProneCase> scan_prone_cases(int k, std::uint64_t max_seed) {
  std::vector<ProneCase> out;
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    topo::Topology t;
    topo::build_fattree(t, k);
    sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(k));
    auto failed = topo::random_failures(t, rng, 0.05);
    const auto routing = topo::compute_shortest_paths(t);
    topo::BufferDependencyGraph g(t);
    g.add_routing_closure(routing);
    const auto cbd = g.find_cycle();
    if (!cbd.has_cbd) continue;
    auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
    if (!stress.covered) continue;
    out.push_back({seed, std::move(failed), std::move(stress.flows)});
  }
  return out;
}

// Every trial's fabric honors the binary-wide --analyze mode (a kFail
// verdict surfaces as a failed trial through the worker pool).
analyze::PreflightMode g_preflight = analyze::PreflightMode::kOff;
// --cbd-free-routing: every scenario swaps shortest paths for the
// up*/down* tables (with --analyze=fail, pre-flight then proves the
// restriction removed the cycles on part (b)'s prone topologies too).
bool g_cbd_free = false;

ScenarioConfig config_for(FcKind kind) {
  ScenarioConfig cfg;
  cfg.preflight = g_preflight;
  cfg.switch_buffer = 300'000;
  cfg.fc = FcSetup::derive(kind, cfg.switch_buffer, cfg.link.rate, cfg.tau());
  cfg.fc.cbd_free_routing = g_cbd_free;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  g_preflight = cli.preflight;
  g_cbd_free = cli.cbd_free_routing;
  bench::header("Figures 16/17: average available bandwidth and slowdown",
                "Fig. 16(a)/(b), Fig. 17(a)/(b), Sec 6.2.3");
  const int kCbdFreeCases = cli.quick ? 6 : 14;
  const int k = 4;
  const FcKind kinds[4] = {FcKind::kPfc, FcKind::kCbfc, FcKind::kGfcBuffer,
                           FcKind::kGfcTime};
  const char* names[4] = {"PFC", "CBFC", "GFC-buffer", "GFC-time"};

  const auto free_seeds = scan_cbd_free_seeds(k, kCbdFreeCases);
  const auto prone = scan_prone_cases(k, cli.quick ? 40u : 160u);

  exp::Campaign campaign;
  campaign.name = "fig16_17_overall";
  campaign.seed = cli.seed;

  // --- (a) CBD-free cases: closed-loop workload for every mechanism ------
  for (int m = 0; m < 4; ++m) {
    for (std::uint64_t seed : free_seeds) {
      exp::ParamSet p;
      p.set("part", "a");
      p.set("mechanism", names[m]);
      p.set("seed", seed);
      const FcKind kind = kinds[m];
      const std::uint64_t base = cli.seed;
      campaign.add("a/" + std::string(names[m]) + "/seed" + std::to_string(seed),
                   std::move(p), [kind, k, seed, base] {
                     auto s = make_random_fattree(config_for(kind), k, 0.05, seed);
                     RunOptions opts;
                     opts.duration = sim::ms(12);
                     opts.workload_seed = 1000 + seed + base;
                     const RunSummary r = run_closed_loop(s, opts);
                     return exp::TrialResult()
                         .add("deadlocked", r.deadlocked)
                         .add("per_host_gbps", r.per_host_gbps)
                         .add("mean_slowdown", r.mean_slowdown);
                   });
    }
  }

  // --- (b) deadlock-prone cases ------------------------------------------
  // The baselines get the CBD stress probe (the flow combination the
  // paper's repeats hunt for); once it locks, throughput is zero forever.
  // GFC runs the same deadlock-prone topologies with the organic
  // closed-loop workload: combinations come and go, nothing locks, and the
  // long-run average matches the CBD-free numbers (the paper's Fig 16(b)).
  for (int m = 0; m < 4; ++m) {
    const bool is_gfc =
        kinds[m] == FcKind::kGfcBuffer || kinds[m] == FcKind::kGfcTime;
    for (const ProneCase& c : prone) {
      exp::ParamSet p;
      p.set("part", "b");
      p.set("mechanism", names[m]);
      p.set("seed", c.seed);
      const FcKind kind = kinds[m];
      const std::uint64_t base = cli.seed;
      auto run_gfc = [kind, k, c, base] {
        auto s = make_fattree(config_for(kind), k, c.failed);
        RunOptions opts;
        opts.duration = sim::ms(12);
        opts.workload_seed = 77 + c.seed + base;
        const RunSummary r = run_closed_loop(s, opts);
        return exp::TrialResult()
            .add("deadlocked", r.deadlocked)
            .add("per_host_gbps", r.per_host_gbps);
      };
      auto run_stress = [kind, k, c] {
        auto s = make_fattree(config_for(kind), k, c.failed);
        net::Network& net = s.fabric->net();
        for (const auto& f : c.stress_flows) {
          net::Flow& flow =
              net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
          flow.path_salt = f.salt;
        }
        stats::ThroughputSampler tp(net, sim::us(100));
        stats::DeadlockDetector det(net);
        net.run_until(sim::ms(12));
        const double bw = tp.average_gbps(0, sim::ms(9), sim::ms(12)) /
                          static_cast<double>(s.info.hosts.size());
        return exp::TrialResult()
            .add("deadlocked", det.deadlocked())
            .add("per_host_gbps", bw);
      };
      campaign.add("b/" + std::string(names[m]) + "/seed" +
                       std::to_string(c.seed),
                   std::move(p),
                   is_gfc ? std::function<exp::TrialResult()>(run_gfc)
                          : std::function<exp::TrialResult()>(run_stress));
    }
  }

  const exp::CampaignResult result = exp::run_campaign_cli(campaign, cli);

  // --- report, byte-identical to the historical sequential output --------
  const std::size_t nfree = free_seeds.size();
  std::printf("\n(a) CBD-free random scenarios (k=%d, 5%% failures, "
              "enterprise workload, %d cases x 12 ms)\n",
              k, kCbdFreeCases);
  std::printf("%-12s %18s %14s %9s\n", "mechanism", "avail bw [Gb/s/host]",
              "mean slowdown", "deadlocks");
  for (int m = 0; m < 4; ++m) {
    Agg agg;
    for (std::size_t i = 0; i < nfree; ++i) {
      // Failed / timed-out / shard-skipped trials drop out of the average;
      // finish_cli reports them on stderr and in the exit status.
      if (!result.trials[m * nfree + i].ok()) continue;
      const auto& mt = result.trials[m * nfree + i].metrics;
      agg.add(mt.find("deadlocked")->as_bool(),
              mt.find("per_host_gbps")->as_double(),
              mt.find("mean_slowdown")->as_double());
    }
    std::printf("%-12s %18.2f %14.1f %9d\n", names[m], agg.bw_sum / agg.n,
                agg.sd_sum / agg.n, agg.deadlocks);
  }

  std::printf("\n(b) deadlock-prone scenarios\n");
  std::printf("%-12s %18s %9s\n", "mechanism", "avail bw [Gb/s/host]",
              "deadlocks");
  const std::size_t b_base = 4 * nfree;
  for (int m = 0; m < 4; ++m) {
    const bool is_gfc =
        kinds[m] == FcKind::kGfcBuffer || kinds[m] == FcKind::kGfcTime;
    double bw_sum = 0;
    int n = 0, deadlocks = 0;
    for (std::size_t i = 0; i < prone.size(); ++i) {
      if (!result.trials[b_base + m * prone.size() + i].ok()) continue;
      const auto& mt = result.trials[b_base + m * prone.size() + i].metrics;
      if (mt.find("deadlocked")->as_bool()) ++deadlocks;
      bw_sum += mt.find("per_host_gbps")->as_double();
      ++n;
    }
    std::printf("%-12s %18.2f %9d   (over %d prone cases%s)\n", names[m],
                n > 0 ? bw_sum / n : 0.0, deadlocks, n,
                is_gfc ? ", organic workload" : ", stress probe");
  }
  std::printf("\nPaper shape: (a) all mechanisms similar; (b) PFC/CBFC go to "
              "~0 (deadlock), GFC keeps delivering.\n"
              "Note: under the *sustained* stress probe GFC still never "
              "deadlocks, but crawls at the\nrate floor while the probe "
              "lasts (rates never reach zero; see EXPERIMENTS.md).\n");

  return exp::finish_cli(cli, result);
}
