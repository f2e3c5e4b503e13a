// Table 1: statistical deadlock-case counts on random-failure fat-trees.
//
// Methodology (scaled; see EXPERIMENTS.md): per scale k we sample N random
// topologies (each switch link down with 5%), pre-filter the CBD-prone
// ones exactly as the paper does, and then — instead of the paper's 100
// closed-loop repeats per scenario (10^6 runs per scale, beyond a laptop)
// — we condition directly on the "specific flow combination that fills up
// the CBD" with a directed stress probe and report, per mechanism, the
// number of scenarios that deadlock. Expected shape: identical nonzero
// counts for PFC and CBFC, decreasing with k; zero for both GFC variants.
//
// Runs as exp:: campaigns on --jobs N workers: the topology screen
// (sampled/prone/covered) is one trial per sampled seed, merged in seed
// order, and every (scale, covered seed, mechanism) simulation is an
// independent trial, with counts identical to the historical sequential
// loop for any job count.
//
// Mechanism columns come from the src/mech registry: the four historical
// ones plus DCFIT (detect-and-break; its column counts scenarios it failed
// to keep moving, since the ground-truth scanner still sees the transient
// re-forming wedges it keeps breaking) and CBD-routing (PFC on up*/down*
// restricted tables; must never deadlock, same guarantee class as GFC).
#include <cmath>
#include <stdexcept>

#include "analyze/analyze.hpp"
#include "bench_common.hpp"
#include "exp/cli.hpp"
#include "exp/worker_pool.hpp"
#include "mech/dcfit.hpp"
#include "mech/registry.hpp"
#include "stats/throughput.hpp"

using namespace gfc;
using namespace gfc::runner;

namespace {

constexpr int kNumMechs = 6;

struct CoveredCase {
  std::uint64_t seed;
  std::vector<topo::LinkIndex> failed;
  std::vector<topo::CbdStress::FlowSpec> stress_flows;
  std::string witness;  // canonical CBD cycle (smallest link first)
};

/// A statically CBD-free sample, kept for runtime cross-validation: if the
/// analyzer says no cycle exists, even PFC must never deadlock there.
struct FreeCase {
  std::uint64_t seed;
  std::vector<topo::LinkIndex> failed;
};

struct ScaleScan {
  int sampled = 0;
  int prone = 0;
  std::vector<CoveredCase> covered;
  std::vector<FreeCase> cbd_free;
};

/// One sampled topology's screen: a pure function of (k, seed).
struct SeedScan {
  bool prone = false;
  bool covered = false;
  std::vector<topo::LinkIndex> failed;
  std::vector<topo::CbdStress::FlowSpec> stress_flows;
  std::string witness;  // canonical CBD cycle (smallest link first)
};

SeedScan scan_seed(int k, std::uint64_t seed) {
  SeedScan out;
  topo::Topology t;
  topo::build_fattree(t, k);
  sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(k));
  out.failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  // CBD-prone screening through the static analyzer: one witness DFS
  // per sample, so paper-scale sweeps (--scale) stay cheap until a
  // sample actually earns a simulation.
  const analyze::CbdScreen screen = analyze::screen_cbd(t, routing);
  out.prone = screen.prone;
  if (!screen.prone) return out;
  auto stress = topo::build_cbd_stress(t, routing, screen.cycle, rng);
  out.covered = stress.covered;
  out.stress_flows = std::move(stress.flows);
  out.witness = screen.witness;
  return out;
}

/// Screens seeds 1..n of every scale on `jobs` workers (no journal, no
/// sharding: the screen is cheap and deterministic), then merges each
/// scale in seed order, keeping its first `keep_free[i]` CBD-free seeds.
std::vector<ScaleScan> scan_scales(const std::vector<std::pair<int, int>>& scales,
                                   const std::vector<int>& keep_free,
                                   int jobs) {
  std::vector<std::vector<SeedScan>> seeds(scales.size());
  exp::Campaign screen;
  screen.name = "table1_screen";
  for (std::size_t si = 0; si < scales.size(); ++si) {
    const auto [k, n] = scales[si];
    seeds[si].resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      screen.add("k" + std::to_string(k) + "/seed" + std::to_string(i + 1), {},
                 [slot = &seeds[si][static_cast<std::size_t>(i)], k, i] {
                   *slot = scan_seed(k, static_cast<std::uint64_t>(i) + 1);
                   return exp::TrialResult{};
                 });
  }
  exp::PoolOptions pool;
  pool.jobs = jobs;
  for (const exp::TrialRecord& t : exp::run_campaign(screen, pool).trials)
    if (!t.ok())
      throw std::runtime_error("screen " + t.name + " failed: " + t.error);

  std::vector<ScaleScan> out(scales.size());
  for (std::size_t si = 0; si < scales.size(); ++si) {
    for (std::size_t i = 0; i < seeds[si].size(); ++i) {
      SeedScan& r = seeds[si][i];
      const std::uint64_t seed = i + 1;
      ++out[si].sampled;
      if (!r.prone) {
        if (static_cast<int>(out[si].cbd_free.size()) < keep_free[si])
          out[si].cbd_free.push_back({seed, std::move(r.failed)});
        continue;
      }
      ++out[si].prone;
      if (!r.covered) continue;
      out[si].covered.push_back({seed, std::move(r.failed),
                                 std::move(r.stress_flows), std::move(r.witness)});
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  bench::header("Table 1: deadlock cases across network scales", "Table 1");
  struct Scale {
    int k;
    int n;
    sim::TimePs dur;
  };
  // --scale multiplies the per-k sample counts toward the paper's 10^4
  // topologies per scale (EXPERIMENTS.md records such a run).
  const auto scaled = [&cli](int base) {
    return std::max(1, static_cast<int>(std::lround(base * cli.scale)));
  };
  const Scale scales[] = {
      {4, scaled(cli.quick ? 40 : 160), sim::ms(12)},
      {8, scaled(cli.quick ? 60 : 400), sim::ms(10)},
      {16, scaled(cli.quick ? 8 : 40), sim::ms(8)},
  };
  // Registry rows by their stable matrix index (mech_test pins the order).
  const auto& reg = mech::all_mechanisms();
  const mech::MechSpec* specs[kNumMechs] = {
      &reg[0],  // PFC
      &reg[2],  // CBFC
      &reg[4],  // GFC-buffer
      &reg[5],  // GFC-time
      &reg[7],  // DCFIT-drop
      &reg[9],  // CBD-routing
  };

  // Cross-validation sample: statically CBD-free k=4 fabrics get a PFC
  // closed-loop run below — the analyzer's "deadlock_free" verdict must
  // translate into zero runtime detections.
  std::vector<std::pair<int, int>> screened;
  std::vector<int> keep_free;
  for (const Scale& s : scales) {
    screened.push_back({s.k, s.n});
    keep_free.push_back(s.k == 4 ? 4 : 0);
  }
  const std::vector<ScaleScan> scans = scan_scales(screened, keep_free, cli.jobs);

  std::printf("\nCBD witnesses (canonical: cycle rotated to its smallest "
              "link):\n");
  for (std::size_t si = 0; si < std::size(scales); ++si)
    for (const CoveredCase& c : scans[si].covered)
      std::printf("  k=%-3d seed=%-4llu %s\n", scales[si].k,
                  static_cast<unsigned long long>(c.seed), c.witness.c_str());

  exp::Campaign campaign;
  campaign.name = "table1_deadlock_cases";
  campaign.seed = cli.seed;
  for (std::size_t si = 0; si < std::size(scales); ++si) {
    const Scale& s = scales[si];
    for (const CoveredCase& c : scans[si].covered) {
      for (int m = 0; m < kNumMechs; ++m) {
        const mech::MechSpec* spec = specs[m];
        exp::ParamSet p;
        p.set("k", s.k);
        p.set("seed", c.seed);
        p.set("mechanism", spec->name);
        const int k = s.k;
        const sim::TimePs dur = s.dur;
        const std::uint64_t base = cli.seed;
        const analyze::PreflightMode preflight = cli.preflight;
        const bool cbd_free = cli.cbd_free_routing;
        const bool is_dcfit = spec->kind == FcKind::kDcfit;
        campaign.add(
            "k" + std::to_string(s.k) + "/seed" + std::to_string(c.seed) +
                "/" + spec->name,
            std::move(p),
            [spec, k, dur, c, base, preflight, cbd_free, is_dcfit] {
              ScenarioConfig cfg;
              cfg.preflight = preflight;
              cfg.seed = 1 + base;
              cfg.switch_buffer = 300'000;
              cfg.fc = mech::setup_for(*spec, cfg.switch_buffer, cfg.link.rate,
                                       cfg.tau())
                           .value();
              // --cbd-free-routing: reroute every row onto the up*/down*
              // tables (the stress probe then exercises a cycle-free fabric,
              // so with --analyze=fail every trial must pass pre-flight).
              cfg.fc.cbd_free_routing |= cbd_free;
              auto sc = make_fattree(cfg, k, c.failed);
              net::Network& net = sc.fabric->net();
              for (const auto& f : c.stress_flows) {
                net::Flow& flow = net.create_flow(f.src, f.dst, 0,
                                                  net::Flow::kUnbounded, 0);
                flow.path_salt = f.salt;
              }
              stats::DeadlockOptions dl_opts;
              // DCFIT rows must run past the first wedge: the point is the
              // in-band break, so let the clock reach `dur` and check that
              // the stress flows are still making progress at the tail.
              dl_opts.stop_on_detect = !is_dcfit;
              stats::DeadlockDetector det(net, dl_opts);
              stats::ThroughputSampler tp(net, sim::us(100));
              net.run_until(dur);
              const double tail =
                  tp.average_gbps(0, dur * 3 / 4, dur);
              exp::TrialResult r;
              r.add("deadlocked", det.deadlocked());
              r.add("wedged", det.deadlocked() && tail <= 0.0);
              if (is_dcfit) {
                const mech::DcfitTotals t = mech::collect_dcfit(net);
                r.add("detections", static_cast<std::int64_t>(t.detections));
                r.add("sacrificed",
                      static_cast<std::int64_t>(t.packets_sacrificed));
              }
              return r;
            });
      }
    }
  }

  // Cross-validation trials (appended after the matrix so the idx-based
  // report below is unchanged): CBD-free fabric + PFC + closed loop.
  for (const FreeCase& c : scans[0].cbd_free) {
    exp::ParamSet p;
    p.set("k", 4);
    p.set("seed", c.seed);
    p.set("mechanism", "PFC/cbd-free");
    const std::uint64_t base = cli.seed;
    const analyze::PreflightMode preflight = cli.preflight;
    const bool cbd_free = cli.cbd_free_routing;
    campaign.add("xval/k4/seed" + std::to_string(c.seed), std::move(p),
                 [c, base, preflight, cbd_free] {
                   ScenarioConfig cfg;
                   cfg.preflight = preflight;
                   cfg.seed = 1 + base;
                   cfg.switch_buffer = 300'000;
                   cfg.fc = FcSetup::derive(FcKind::kPfc, cfg.switch_buffer,
                                            cfg.link.rate, cfg.tau());
                   cfg.fc.cbd_free_routing = cbd_free;
                   auto sc = make_fattree(cfg, 4, c.failed);
                   RunOptions opts;
                   opts.duration = sim::ms(8);
                   opts.workload_seed = 1000 + c.seed + base;
                   const RunSummary r = run_closed_loop(sc, opts);
                   return exp::TrialResult().add("deadlocked", r.deadlocked);
                 });
  }

  const exp::CampaignResult result = exp::run_campaign_cli(campaign, cli);

  std::printf("%-7s %9s %6s %8s | %5s %5s %12s %10s %12s %13s\n", "scale",
              "sampled", "prone", "covered", "PFC", "CBFC", "GFC-buffer",
              "GFC-time", "DCFIT-drop*", "CBD-routing");
  std::size_t idx = 0;
  int gfc_deadlocks = 0;
  int cbd_deadlocks = 0;
  std::int64_t dcfit_detections = 0;
  std::int64_t dcfit_sacrificed = 0;
  for (std::size_t si = 0; si < std::size(scales); ++si) {
    int deadlocks[kNumMechs] = {};
    for (std::size_t ci = 0; ci < scans[si].covered.size(); ++ci)
      for (int m = 0; m < kNumMechs; ++m, ++idx) {
        // Failed / timed-out / shard-skipped trials have no metrics; the
        // row still prints from whatever completed (finish_cli reports
        // the rest on stderr and in the exit status).
        if (!result.trials[idx].ok()) continue;
        const auto& metrics = result.trials[idx].metrics;
        const mech::MechSpec& spec = *specs[m];
        if (spec.kind == FcKind::kDcfit) {
          // DCFIT's column counts cases it failed to keep moving: the
          // ground-truth scanner still latches on the transient wedges it
          // keeps breaking, so raw `deadlocked` would mirror PFC.
          if (metrics.find("wedged")->as_bool()) ++deadlocks[m];
          dcfit_detections += metrics.find("detections")->as_int();
          dcfit_sacrificed += metrics.find("sacrificed")->as_int();
        } else if (metrics.find("deadlocked")->as_bool()) {
          ++deadlocks[m];
        }
      }
    std::printf("k = %-3d %9d %6d %8d | %5d %5d %12d %10d %12d %13d\n",
                scales[si].k, scans[si].sampled, scans[si].prone,
                static_cast<int>(scans[si].covered.size()), deadlocks[0],
                deadlocks[1], deadlocks[2], deadlocks[3], deadlocks[4],
                deadlocks[5]);
    gfc_deadlocks += deadlocks[2] + deadlocks[3];
    cbd_deadlocks += deadlocks[5];
  }
  std::printf(
      "\n* DCFIT-drop counts scenarios still wedged (zero tail throughput)\n"
      "  at the horizon; across all its trials it detected %lld wedges\n"
      "  in-band and sacrificed %lld packets breaking them.\n",
      static_cast<long long>(dcfit_detections),
      static_cast<long long>(dcfit_sacrificed));
  std::printf("\nPaper shape (Table 1): PFC and CBFC deadlock in the same\n"
              "scenarios, counts decrease with scale, both GFC variants are 0;\n"
              "DCFIT breaks every wedge it detects, CBD-routing prevents the\n"
              "cycles outright (both columns 0).\n");

  int xval_deadlocks = 0;
  for (const FreeCase& c : scans[0].cbd_free) {
    const exp::TrialRecord* t =
        result.find("xval/k4/seed" + std::to_string(c.seed));
    if (t != nullptr && t->ok() &&
        t->metrics.find("deadlocked")->as_bool())
      ++xval_deadlocks;
  }
  std::printf("\nCross-validation: %d statically CBD-free k=4 fabrics ran "
              "closed-loop under PFC;\n%d deadlocked (a nonzero count here "
              "falsifies the static analysis).\n",
              static_cast<int>(scans[0].cbd_free.size()), xval_deadlocks);

  const int status = exp::finish_cli(cli, result);
  if (gfc_deadlocks > 0)
    std::fprintf(stderr,
                 "FAIL: %d GFC trial(s) deadlocked; the paper's Theorem 4.1/"
                 "5.1 guarantee is zero\n",
                 gfc_deadlocks);
  if (xval_deadlocks > 0)
    std::fprintf(stderr,
                 "FAIL: %d statically CBD-free fabric(s) deadlocked at "
                 "runtime\n",
                 xval_deadlocks);
  if (cbd_deadlocks > 0)
    std::fprintf(stderr,
                 "FAIL: %d CBD-routing trial(s) deadlocked; up*/down* "
                 "restriction guarantees zero CBDs\n",
                 cbd_deadlocks);
  if (gfc_deadlocks > 0 || xval_deadlocks > 0 || cbd_deadlocks > 0) return 1;
  return status;
}
