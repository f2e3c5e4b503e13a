// perfbench: times the library's public entry points on one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --smoke
//
// --trace 0 prints the end-to-end metrics of NAME. --trace 1 runs a fixed,
// traced op set of every workload (plus NAME once more untraced, for the
// tracing overhead) and prints the per-layer metrics. --smoke runs the
// fixed op sets whose exact counts and digests perfbench/pinned.json pins.
// The last stdout line is one JSON object; perfbench/run.py wraps it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-ups timed per end-to-end run; setup_s is their median. At least
/// kMinSetupReps, then more while they have taken under kSetupBudgetS.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kSetupBudgetS = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 25;
  bool trace = false;
  std::string spans_path;
  bool smoke = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n"
               "       perfbench --smoke\n"
               "NAME: screen_k8 | sweep_k4f3 | sim_k4 | campaign_k8\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--smoke")) {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (!std::strcmp(flag, "--workload")) {
      a->workload = v;
    } else if (!std::strcmp(flag, "--seed")) {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0' || *v == '-') return false;
    } else if (!std::strcmp(flag, "--seconds")) {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0 && a->seconds <= 3600)) return false;
    } else if (!std::strcmp(flag, "--trace")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (!std::strcmp(flag, "--spans")) {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return a->smoke || std::find(names.begin(), names.end(), a->workload) != names.end();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void print_exact(const CheckLog& log) {
  for (const auto& [key, value] : log.exact_values())
    std::printf("exact %s %s\n", key.c_str(), value.c_str());
}

void print_result(const CheckLog& log, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  const bool correct = failed == 0 && log.failed_checks() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}, \"stderr_warnings\": %llu}\n",
              static_cast<unsigned long long>(log.expected_warnings()));
}

int run_end_to_end(const Args& a) {
  const auto w = make_workload(a.workload, a.seed);
  std::vector<double> setups;
  double setup_total_s = 0;
  while (setups.size() < kMinSetupReps ||
         (setups.size() < kMaxSetupReps && setup_total_s < kSetupBudgetS)) {
    const Clock::time_point t0 = Clock::now();
    w->setup(nullptr);
    setups.push_back(seconds_since(t0));
    setup_total_s += setups.back();
  }
  const LoopStats st = w->run(a.seconds, 0, nullptr);
  const double rss = peak_rss_mb();
  CheckLog log;
  w->check(&log);
  std::printf("%s seed %llu: %zu ops in %.3f s; set-ups (s):", w->name(),
              static_cast<unsigned long long>(a.seed), st.op_ms.size(), st.wall_s);
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  print_exact(log);
  print_result(log, st.attempted, st.failed + log.failed_ops(),
               {{"setup_s", median(setups), "s"},
                {"ops_per_s", st.ops_per_s(), "1/s"},
                {"op_ms_p50", percentile(st.op_ms, 0.5), "ms"},
                {"op_ms_p90", percentile(st.op_ms, 0.9), "ms"},
                {"peak_rss_mb", rss, "MB"}});
  return 0;
}

int run_traced(const Args& a) {
  CheckLog log;
  std::size_t attempted = 0, failed = 0;
  const auto target = make_workload(a.workload, a.seed);
  target->setup(nullptr);
  const LoopStats untraced = target->run(0, target->traced_ops(a.seconds), nullptr);
  target->check(&log);
  attempted += untraced.attempted;
  failed += untraced.failed;

  Spans spans;
  std::vector<std::unique_ptr<Workload>> all;
  double traced_ops_per_s = 0;
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name, a.seed);
    w->setup(&spans);
    const LoopStats st = w->run(0, w->traced_ops(a.seconds), &spans);
    w->check(&log);
    attempted += st.attempted;
    failed += st.failed;
    std::printf("traced %s: %zu ops in %.3f s\n", w->name(), st.op_ms.size(), st.wall_s);
    if (name == a.workload) traced_ops_per_s = st.ops_per_s();
    all.push_back(std::move(w));
  }

  const LayerTable table = layer_table(spans);
  std::printf("%-12s %-36s %8s %12s %12s %10s\n", "segment", "span", "calls",
              "total_ms", "self_ms", "mean_ms");
  for (const auto& [key, t] : table)
    std::printf("%-12s %-36s %8llu %12.3f %12.3f %10.4f\n",
                workload_names()[static_cast<std::size_t>(key.first)].c_str(),
                key.second.c_str(), static_cast<unsigned long long>(t.calls),
                t.total_ms, t.self_ms, t.mean_ms());
  Metrics metrics;
  for (const auto& w : all) w->layer_metrics(table, &metrics);
  metrics.push_back({"bench.trace_overhead",
                     untraced.ops_per_s() > 0 ? traced_ops_per_s / untraced.ops_per_s() : 0,
                     "ratio"});
  std::printf("  base: %s traced %.3f ops/s, untraced %.3f ops/s\n",
              a.workload.c_str(), traced_ops_per_s, untraced.ops_per_s());
  if (!a.spans_path.empty() && !write_spans_csv(spans, a.spans_path))
    log.check_failed("cannot write spans to " + a.spans_path);
  print_exact(log);
  print_result(log, attempted, failed + log.failed_ops(), metrics);
  return 0;
}

/// Fixed op sets whose exact values the smoke check pins.
int run_smoke() {
  CheckLog log;
  std::size_t attempted = 0, failed = 0;
  const auto run = [&](const char* name, std::uint64_t seed, std::size_t ops,
                       Spans* spans) {
    auto w = make_workload(name, seed);
    w->setup(spans);
    const LoopStats st = w->run(0, ops, spans);
    w->check(&log);
    attempted += st.attempted;
    failed += st.failed;
    std::printf("smoke %s seed %llu%s: %zu ops in %.3f s\n", name,
                static_cast<unsigned long long>(seed), spans ? " traced" : "",
                st.op_ms.size(), st.wall_s);
  };
  Spans spans;
  run("screen_k8", 1, 400, nullptr);   // Table 1's k=8 seeds 1-400
  run("sweep_k4f3", 0, 5488, nullptr);  // one pass in gfc-analyze's order
  run("sweep_k4f3", 1, 5488, nullptr);  // one pass from another start: same values
  run("sim_k4", 0, 8, nullptr);
  run("sim_k4", 0, 8, &spans);  // the traced calls give the same results
  run("campaign_k8", 0, 4, nullptr);
  run("campaign_k8", 0, 4, &spans);
  print_exact(log);
  print_result(log, attempted, failed + log.failed_ops(), {});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return usage();
  try {
    if (a.smoke) return run_smoke();
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
