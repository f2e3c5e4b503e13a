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

/// Install a DeadlockOptions::on_detect that dumps the fabric's flight
/// windows (pre-stall events + witness cycle) to `path`. No-op when the
/// fabric has no tracer or `path` is empty.
inline void arm_flight_dump(stats::DeadlockOptions* opts,
                            runner::Fabric& fabric, const std::string& path) {
  if (path.empty() || fabric.net().tracer() == nullptr) return;
  runner::Fabric* f = &fabric;
  opts->on_detect = [f, path](const stats::DeadlockDetector& det) {
    trace::dump_flight(path, f->net().tracer()->buffer(), f->node_name_fn(),
                       "deadlock detected at " +
                           sim::format_time(det.detected_at()) +
                           "\nwitness cycle: " +
                           runner::describe_cycle(det, f->net()));
  };
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
    arm_flight_dump(&dl_opts, *s.fabric, artifacts->flight_dump);
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

}  // namespace gfc::bench
