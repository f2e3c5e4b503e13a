// Fault sweep: how gently does each flow-control mechanism degrade when
// the control plane itself becomes unreliable?
//
// Three trial groups (all exp:: campaign trials, --jobs safe):
//
//  1. loss sweep — drop every link-control frame type (PFC pause/resume,
//     CBFC credits, GFC feedback) with probability p on two topologies:
//     a 4-to-1 incast (pure congestion, no CBD) and the Figure 1 ring
//     (deadlock-prone). Mechanisms: PFC and CBFC bare and with their
//     self-healing knobs (pause expiry / credit sync), plus both GFC
//     variants. Expected shape: bare PFC wedges permanently once a RESUME
//     is lost (goodput and tail goodput collapse), PFC+expiry and
//     CBFC(+sync) recover, and GFC — whose rate feedback is periodic and
//     whose rates are floored above zero — degrades gently and never
//     deadlocks at any loss rate.
//
//  2. recovery — the ring deadlocks organically under PFC/CBFC; with the
//     DeadlockDetector in recover mode the witness cycle is drained and
//     the run keeps delivering (detections/recoveries/drops reported).
//
//  3. link flaps — a LinkScheduler takes a core fat-tree link down
//     mid-run and restores it later; routing is recomputed on each
//     transition and stranded packets are re-routed. The closed-loop
//     workload should keep completing flows through the outage.
//
//  4. mechanism x scenario matrix — every registered mechanism
//     (src/mech/registry: prevention, detection and avoidance families)
//     on the deadlocking ring and the cycle-free incast, no faults.
//     One table: who deadlocks, who recovers, and at what cost (packets
//     sacrificed, lossless violations, path stretch, buffer headroom).
#include "bench_common.hpp"
#include "exp/cli.hpp"
#include "exp/worker_pool.hpp"
#include "fault/link_scheduler.hpp"
#include "mech/dcfit.hpp"
#include "mech/registry.hpp"

using namespace gfc;
using namespace gfc::runner;

namespace {

using mech::MechSpec;
using mech::unblock_frame;

/// Loss-sweep rows (group 1): the six original mechanisms. The full
/// registry — including DCFIT and CBD-routing — runs in the matrix group.
constexpr std::size_t kLossMechs = 6;

/// Per-trial trace artifacts (--trace): every trial exports its event ring
/// as Chrome JSON + CSV named by the trial id — the deterministic key — so
/// the artifact set is byte-identical at any --jobs.
void export_trial_trace(const exp::CliOptions& cli, const std::string& name,
                        runner::Fabric& fabric) {
  if (!cli.trace) return;
  bench::TraceArtifacts art;
  art.chrome_json = cli.trace_artifact(name, "trace.json");
  art.csv = cli.trace_artifact(name, "trace.csv");
  bench::export_trace(fabric, art);
}

// Every trial's fabric honors the binary-wide --analyze mode.
analyze::PreflightMode g_preflight = analyze::PreflightMode::kOff;
// --cbd-free-routing: every scenario swaps its routing for the up*/down*
// CBD-free tables. Composed with --analyze=fail this makes the campaign
// assert the restriction removed the cycles on every topology it visits.
bool g_cbd_free = false;

ScenarioConfig config_for(const MechSpec& m, std::uint64_t base) {
  ScenarioConfig cfg;
  cfg.preflight = g_preflight;
  cfg.seed = 1 + base;
  // setup_for = FcSetup::derive + the spec's heal / break / routing knobs;
  // every registered mechanism is derivable at the default 300 KB buffer.
  cfg.fc = mech::setup_for(m, cfg.switch_buffer, cfg.link.rate, cfg.tau())
               .value();
  // OR, not assignment: the CBD-routing mechanism spec already sets it.
  cfg.fc.cbd_free_routing |= g_cbd_free;
  return cfg;
}

/// Group 1 trial body: permanent line-rate flows on `ring` (3 switches,
/// 2 hops) or a 4-to-1 incast, with the mechanism's unblock frames dropped
/// with probability `drop`. Reports average per-host goodput plus the
/// *minimum* per-sender tail (last-quarter) goodput: one permanently
/// wedged sender shows up as min_tail ~ 0 even when the shared bottleneck
/// hides it from the aggregate.
exp::TrialResult run_loss_trial(bool ring, const MechSpec& m, double drop,
                                std::uint64_t fault_seed, std::uint64_t base,
                                sim::TimePs dur, const exp::CliOptions& cli,
                                const std::string& trial_name) {
  ScenarioConfig cfg = config_for(m, base);
  cfg.fault.seed = fault_seed;
  cfg.fault.drop(unblock_frame(m.kind)) = drop;
  cfg.trace = cli.trace_options();

  RingScenario rs;
  IncastScenario is;
  Fabric* fabric = nullptr;
  std::vector<net::NodeId> senders;
  if (ring) {
    rs = make_ring(cfg, 3, 2);
    fabric = rs.fabric.get();
    senders.assign(rs.info.hosts.begin(), rs.info.hosts.end());
  } else {
    is = make_incast(cfg, 4);
    fabric = is.fabric.get();
    senders.assign(is.info.senders.begin(), is.info.senders.end());
  }
  net::Network& net = fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::ThroughputSampler per_src(net, sim::us(100),
                                   stats::ThroughputSampler::Key::kPerSrcHost);
  stats::DeadlockDetector det(net);
  net.run_until(dur);

  double min_tail = -1.0;
  for (net::NodeId h : senders) {
    const double g = per_src.average_gbps(h, dur * 3 / 4, dur);
    if (min_tail < 0 || g < min_tail) min_tail = g;
  }

  exp::TrialResult out;
  out.add("gbps", tp.average_gbps(0, sim::ms(1), dur) /
                      static_cast<double>(senders.size()))
      .add("min_tail_gbps", min_tail)
      .add("deadlocked", det.deadlocked())
      .add("violations", net.counters().lossless_violations);
  if (const fault::FaultPlan* plan = fabric->fault_plan()) {
    out.add("faults_consulted", plan->counters().consulted)
        .add("faults_dropped", plan->counters().dropped);
  } else {
    out.add("faults_consulted", 0).add("faults_dropped", 0);
  }
  export_trial_trace(cli, trial_name, *fabric);
  return out;
}

/// Group 2 trial body: let the ring deadlock, then drain-and-reset the
/// witness cycle (DeadlockOptions::recover) and keep going.
exp::TrialResult run_recovery_trial(const MechSpec& m, std::uint64_t base,
                                    sim::TimePs dur,
                                    const exp::CliOptions& cli,
                                    const std::string& trial_name) {
  ScenarioConfig cfg = config_for(m, base);
  cfg.trace = cli.trace_options();
  RingScenario s = make_ring(cfg, 3, 2);
  net::Network& net = s.fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockOptions dl_opts;
  dl_opts.recover = true;
  if (cli.trace)
    // First detection wins the file; later recoveries rewrite it with the
    // latest pre-stall window, which is still deterministic per trial.
    runner::arm_flight_dump(&dl_opts, *s.fabric,
                            cli.trace_artifact(trial_name, "flight.txt"));
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(dur);
  exp::TrialResult out = exp::TrialResult()
      .add("detections", det.detections())
      .add("recoveries", det.recoveries())
      .add("recovered_packets", det.recovered_packets())
      .add("deadlocked", det.deadlocked())  // stays false: nothing latches
      .add("tail_gbps", tp.average_gbps(0, dur * 3 / 4, dur) / 3.0);
  export_trial_trace(cli, trial_name, *s.fabric);
  return out;
}

/// Group 4 trial body: one cell of the mechanism x scenario matrix.
/// Permanent line-rate flows, no injected faults: the mechanism against
/// the bare scenario. Reports the full cost accounting — ground-truth
/// deadlock, goodput (overall and tail), DCFIT detection/break counters,
/// lossless violations, PFC-family buffer headroom and routing stretch.
exp::TrialResult run_matrix_trial(bool ring, const MechSpec& m,
                                  std::uint64_t base, sim::TimePs dur,
                                  const exp::CliOptions& cli,
                                  const std::string& trial_name) {
  ScenarioConfig cfg = config_for(m, base);
  cfg.trace = cli.trace_options();

  RingScenario rs;
  IncastScenario is;
  Fabric* fabric = nullptr;
  std::vector<net::NodeId> senders;
  const mech::RoutingStats* routing = nullptr;
  if (ring) {
    rs = make_ring(cfg, 3, 2);
    fabric = rs.fabric.get();
    senders.assign(rs.info.hosts.begin(), rs.info.hosts.end());
    routing = &rs.route_stats;
  } else {
    is = make_incast(cfg, 4);
    fabric = is.fabric.get();
    senders.assign(is.info.senders.begin(), is.info.senders.end());
    routing = &is.route_stats;
  }
  net::Network& net = fabric->net();
  stats::ThroughputSampler tp(net, sim::us(100));
  stats::DeadlockDetector det(net);
  net.run_until(dur);

  const mech::DcfitTotals dcfit = mech::collect_dcfit(net);
  const bool pfc_family =
      cfg.fc.kind == FcKind::kPfc || cfg.fc.kind == FcKind::kDcfit;
  exp::TrialResult out;
  out.add("gbps", tp.average_gbps(0, sim::ms(1), dur) /
                      static_cast<double>(senders.size()))
      .add("tail_gbps", tp.average_gbps(0, dur * 3 / 4, dur) /
                            static_cast<double>(senders.size()))
      .add("deadlocked", det.deadlocked())
      .add("violations", net.counters().lossless_violations)
      .add("mech_detections", dcfit.detections)
      .add("mech_false_positives", dcfit.false_positives)
      .add("mech_sacrificed", dcfit.packets_sacrificed)
      .add("mech_bypasses", dcfit.bypasses)
      .add("detect_latency_us", dcfit.first_detection_latency >= 0
                                    ? sim::to_seconds(
                                          dcfit.first_detection_latency) * 1e6
                                    : -1.0)
      .add("headroom_bytes",
           pfc_family ? cfg.switch_buffer - cfg.fc.xoff : std::int64_t{0})
      .add("stretch_avg", cfg.fc.cbd_free_routing ? routing->avg_stretch : 1.0)
      .add("cbd_free_routing", cfg.fc.cbd_free_routing);
  export_trial_trace(cli, trial_name, *fabric);
  return out;
}

/// Group 3 trial body: closed-loop fat-tree run with one switch-switch
/// link flapped mid-run; routing recomputed on each transition.
exp::TrialResult run_flap_trial(const MechSpec& m, std::uint64_t base,
                                sim::TimePs dur, const exp::CliOptions& cli,
                                const std::string& trial_name) {
  ScenarioConfig cfg = config_for(m, base);
  cfg.trace = cli.trace_options();
  // Soundness oracle: keep the incremental re-analysis live across the
  // flap's reroutes and cross-check any runtime deadlock witness against
  // the static enumeration (a miss throws and fails the trial).
  cfg.witness_check = true;
  FatTreeScenario s = make_fattree(cfg, 4);
  const auto switch_links = s.topo.switch_links();
  const topo::LinkIndex li = switch_links[switch_links.size() / 2];
  const topo::TopoLink link = s.topo.link(li);

  fault::LinkScheduler sched(
      s.fabric->net(), [&s, li](const fault::LinkEvent& ev) {
        if (ev.up)
          s.topo.restore_link(li);
        else
          s.topo.fail_link(li);
        s.reroute();
      });
  sched.schedule_flap(link.a, link.b, dur / 4, dur * 3 / 4);

  RunOptions opts;
  opts.duration = dur;
  opts.workload_seed = 7 + base;
  if (cli.trace)
    opts.flight_dump_path = cli.trace_artifact(trial_name, "flight.txt");
  const RunSummary r = run_closed_loop(s, opts);
  export_trial_trace(cli, trial_name, *s.fabric);
  return exp::TrialResult()
      .add("gbps", r.per_host_gbps)
      .add("flows_completed", r.flows_completed)
      .add("deadlocked", r.deadlocked)
      .add("wire_lost", s.fabric->net().counters().wire_lost_packets)
      .add("failover_drops", s.fabric->net().counters().failover_drops)
      .add("downs", sched.downs())
      .add("ups", sched.ups())
      .add("analyze_reverdicts", r.analyze_reverdicts)
      .add("analyze_verdict", r.analyze_verdict)
      .add("witness_checks", r.witness_checks);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  g_preflight = cli.preflight;
  g_cbd_free = cli.cbd_free_routing;
  bench::header("Fault sweep: flow control under control-frame loss, "
                "deadlock recovery, link flaps",
                "robustness study; extends Table 1 / Fig 9 to runtime faults");

  const std::vector<double> drops =
      cli.quick ? std::vector<double>{0.0, 0.1}
                : std::vector<double>{0.0, 0.02, 0.1, 0.3};
  const sim::TimePs dur = cli.quick ? sim::ms(4) : sim::ms(8);
  const std::uint64_t base = cli.seed;
  const std::vector<MechSpec>& mechs = mech::all_mechanisms();

  exp::Campaign campaign;
  campaign.name = "fault_sweep";
  campaign.seed = cli.seed;

  // --- group 1: control-frame loss sweep ---------------------------------
  std::uint64_t trial_no = 0;
  for (int topo_i = 0; topo_i < 2; ++topo_i) {
    const bool ring = topo_i == 1;
    const char* tname = ring ? "ring" : "incast";
    for (std::size_t mi = 0; mi < kLossMechs; ++mi) {
      const MechSpec& m = mechs[mi];
      for (double drop : drops) {
        exp::ParamSet p;
        p.set("group", "loss");
        p.set("topo", tname);
        p.set("mechanism", m.name);
        p.set("drop", drop);
        const std::uint64_t fault_seed = 1 + base + 13 * trial_no++;
        char dbuf[32];
        std::snprintf(dbuf, sizeof(dbuf), "%g", drop);
        const std::string name =
            "loss/" + std::string(tname) + "/" + m.name + "/drop" + dbuf;
        campaign.add(name, std::move(p),
                     [ring, m, drop, fault_seed, base, dur, cli, name] {
                       return run_loss_trial(ring, m, drop, fault_seed, base,
                                             dur, cli, name);
                     });
      }
    }
  }

  // --- group 2: deadlock recovery on the ring ----------------------------
  for (const MechSpec& m : {mechs[0], mechs[2]}) {  // bare PFC, bare CBFC
    exp::ParamSet p;
    p.set("group", "recovery");
    p.set("topo", "ring");
    p.set("mechanism", m.name);
    const std::string name = "recovery/ring/" + std::string(m.name);
    campaign.add(name, std::move(p), [m, base, dur, cli, name] {
      return run_recovery_trial(m, base, dur, cli, name);
    });
  }

  // --- group 3: mid-run link flap on a fat-tree --------------------------
  for (const MechSpec& m : {mechs[1], mechs[4]}) {  // PFC+expiry, GFC-buffer
    exp::ParamSet p;
    p.set("group", "flap");
    p.set("topo", "fattree-k4");
    p.set("mechanism", m.name);
    const std::string name = "flap/fattree-k4/" + std::string(m.name);
    campaign.add(name, std::move(p), [m, base, dur, cli, name] {
      return run_flap_trial(m, base, dur, cli, name);
    });
  }

  // --- group 4: mechanism x scenario matrix ------------------------------
  for (int topo_i = 0; topo_i < 2; ++topo_i) {
    const bool ring = topo_i == 0;
    const char* tname = ring ? "ring" : "incast";
    for (const MechSpec& m : mechs) {
      exp::ParamSet p;
      p.set("group", "matrix");
      p.set("topo", tname);
      p.set("mechanism", m.name);
      const std::string name = "matrix/" + std::string(tname) + "/" + m.name;
      campaign.add(name, std::move(p), [ring, m, base, dur, cli, name] {
        return run_matrix_trial(ring, m, base, dur, cli, name);
      });
    }
  }

  const exp::CampaignResult result = exp::run_campaign_cli(campaign, cli);

  // --- report -------------------------------------------------------------
  std::printf("\n(1) goodput under unblock-frame loss (RESUME / credit / "
              "rate feedback)\n    [Gb/s: per-host avg | worst sender tail]\n");
  for (int topo_i = 0; topo_i < 2; ++topo_i) {
    const char* tname = topo_i == 1 ? "ring" : "incast";
    std::printf("\n  %s:\n  %-12s", tname, "mechanism");
    for (double d : drops) {
      char lbl[16];
      std::snprintf(lbl, sizeof(lbl), "p=%.2f", d);
      std::printf("%16s", lbl);
    }
    std::printf("\n");
    for (std::size_t mi = 0; mi < kLossMechs; ++mi) {
      const MechSpec& m = mechs[mi];
      std::printf("  %-12s", m.name.c_str());
      for (double d : drops) {
        char dbuf[32];
        std::snprintf(dbuf, sizeof(dbuf), "%g", d);
        const exp::TrialRecord* t = result.find(
            "loss/" + std::string(tname) + "/" + m.name + "/drop" + dbuf);
        if (!t || !t->ok()) {
          std::printf("  %18s", "FAILED");
          continue;
        }
        std::printf("  %6.2f | %4.2f%s", t->metrics.find("gbps")->as_double(),
                    t->metrics.find("min_tail_gbps")->as_double(),
                    t->metrics.find("deadlocked")->as_bool() ? "*" : " ");
      }
      std::printf("\n");
    }
  }
  std::printf("  (* = deadlock latched; worst-sender tail ~ 0.00 with no * "
              "= a sender wedged\n   by a lost unblock frame)\n");

  std::printf("\n(2) deadlock recovery (ring, organic deadlock, drain-and-"
              "reset)\n  %-12s %10s %10s %16s %10s\n", "mechanism",
              "detections", "recoveries", "dropped_packets", "tail_gbps");
  for (const MechSpec& m : {mechs[0], mechs[2]}) {
    const exp::TrialRecord* t =
        result.find("recovery/ring/" + std::string(m.name));
    if (!t || !t->ok()) continue;
    std::printf("  %-12s %10lld %10lld %16lld %10.2f\n", m.name.c_str(),
                static_cast<long long>(t->metrics.find("detections")->as_int()),
                static_cast<long long>(t->metrics.find("recoveries")->as_int()),
                static_cast<long long>(
                    t->metrics.find("recovered_packets")->as_int()),
                t->metrics.find("tail_gbps")->as_double());
  }

  std::printf("\n(3) mid-run link flap (fat-tree k=4, closed loop)\n"
              "  %-12s %8s %10s %10s %10s %6s %9s %13s\n", "mechanism", "gbps",
              "completed", "wire_lost", "rerouted*", "flaps", "verdicts",
              "final_verdict");
  for (const MechSpec& m : {mechs[1], mechs[4]}) {
    const exp::TrialRecord* t =
        result.find("flap/fattree-k4/" + std::string(m.name));
    if (!t || !t->ok()) continue;
    std::printf(
        "  %-12s %8.2f %10lld %10lld %10lld %3d/%-2d %9lld %13s\n",
        m.name.c_str(), t->metrics.find("gbps")->as_double(),
        static_cast<long long>(t->metrics.find("flows_completed")->as_int()),
        static_cast<long long>(t->metrics.find("wire_lost")->as_int()),
        static_cast<long long>(t->metrics.find("failover_drops")->as_int()),
        static_cast<int>(t->metrics.find("downs")->as_int()),
        static_cast<int>(t->metrics.find("ups")->as_int()),
        static_cast<long long>(
            t->metrics.find("analyze_reverdicts")->as_int()),
        t->metrics.find("analyze_verdict")->as_string().c_str());
  }
  std::printf("  (* failover_drops: stranded behind the dead egress with no "
              "alternative route;\n   verdicts = static re-analyses issued by "
              "install_routing: 1 initial + 1 per\n   flap transition, each "
              "cross-checked against runtime deadlock witnesses)\n");

  std::printf("\n(4) mechanism x scenario matrix (no faults; prevention vs "
              "detection vs avoidance)\n");
  for (int topo_i = 0; topo_i < 2; ++topo_i) {
    const bool ring = topo_i == 0;
    std::printf("\n  %s:\n  %-15s %5s %6s %6s %6s %9s %9s %6s %8s %8s\n",
                ring ? "ring (CBD-prone)" : "incast (cycle-free)", "mechanism",
                "dead", "gbps", "tail", "viol", "detects", "lat_us", "drops",
                "headroom", "stretch");
    for (const MechSpec& m : mechs) {
      const exp::TrialRecord* t = result.find(
          "matrix/" + std::string(ring ? "ring" : "incast") + "/" + m.name);
      if (!t || !t->ok()) {
        std::printf("  %-15s %s\n", m.name.c_str(), "FAILED");
        continue;
      }
      const double lat = t->metrics.find("detect_latency_us")->as_double();
      char latbuf[16];
      if (lat >= 0)
        std::snprintf(latbuf, sizeof(latbuf), "%.1f", lat);
      else
        std::snprintf(latbuf, sizeof(latbuf), "-");
      std::printf(
          "  %-15s %5s %6.2f %6.2f %6lld %9lld %9s %6lld %8lld %8.2f\n",
          m.name.c_str(),
          t->metrics.find("deadlocked")->as_bool() ? "YES" : "no",
          t->metrics.find("gbps")->as_double(),
          t->metrics.find("tail_gbps")->as_double(),
          static_cast<long long>(t->metrics.find("violations")->as_int()),
          static_cast<long long>(
              t->metrics.find("mech_detections")->as_int()),
          latbuf,
          static_cast<long long>(t->metrics.find("mech_sacrificed")->as_int()),
          static_cast<long long>(t->metrics.find("headroom_bytes")->as_int()),
          t->metrics.find("stretch_avg")->as_double());
    }
  }
  std::printf("  (dead = ground-truth detector latched; detects/lat_us/drops "
              "= DCFIT in-band\n   accounting; headroom = buffer - XOFF for "
              "the PFC family; stretch = avg path\n   stretch under CBD-free "
              "routing)\n");

  std::printf("\nExpected shape: bare PFC's tail goodput collapses once "
              "RESUMEs are lost; the\nself-healing variants and both GFC "
              "mechanisms keep delivering at every loss rate.\nIn the matrix, "
              "the ring wedges PFC/CBFC forever, DCFIT detects in-band and\n"
              "keeps traffic moving at a packet cost, CBD-routing and GFC "
              "never deadlock.\n");

  return exp::finish_cli(cli, result);
}
