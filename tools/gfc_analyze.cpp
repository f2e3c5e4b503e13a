// gfc-analyze: static deadlock-risk analysis from the command line.
//
// Builds one of the named scenarios (topology + routing + flows), runs
// the src/analyze/ pass — full elementary-cycle CBD enumeration, safety-
// bound verification, routing lints — and prints a human report and/or
// the deterministic "gfc-analyze-v1" JSON. No simulation event is ever
// scheduled: everything here is decided from the configuration alone.
//
//   gfc-analyze SCENARIO [options]
//
// SCENARIO (--list-scenarios prints the ranges of N, H and K):
//   ring[:N[:H]]        N-switch ring (default 3), flows i -> i+H (def. 2)
//   fattree:K           k-ary fat-tree, shortest-path ECMP, no failures
//   fattree:K:seed=S    + the Table 1 recipe: 5% random failures from the
//                       k-salted seed stream, CBD stress flows if covered
//   fattree:K:fail=a,b  + fail the a-th, b-th, ... switch-to-switch links
//   incast:N            N-to-1 dumbbell
//   loop2               2-switch routing loop (the minimal lint fixture)
//
// Options:
//   --fc NAME        none|pfc|cbfc|gfc-buffer|gfc-time|gfc-conceptual|dcfit
//                    (default pfc)
//   --cbd-free-routing
//                    replace the scenario's routing with the up*/down*
//                    CBD-free tables (src/mech/cbd_routing) before analysis
//   --list-scenarios print the scenario grammar and exit
//   --buffer BYTES   per-port buffer B_m (default 300000, must be > 0)
//   --b1/--b0/--bm/--xoff/--xon BYTES, --period-us T
//                    explicit mechanism parameters (T > 0); omitted ones
//                    are derived from --buffer via the paper's bounds
//   --max-cycles N   Johnson enumeration cap (default 4096)
//   --failures K     exhaustively fail every combination of <= K
//                    switch-to-switch links, reroute (shortest paths) and
//                    re-analyze; the report gains a "failure_sweep"
//                    section with per-combo verdicts and minimal culprit
//                    sets (combos flipping deadlock_free -> risky)
//   --suggest-repairs
//                    propose greedy minimal hitting sets (link removals
//                    and turn restrictions) breaking the enumerated
//                    (preferring activated) cycles, statically re-verified
//   --json PATH      write the JSON report to PATH ('-' = stdout, which
//                    suppresses the human report)
//   --fail           exit 3 when the verdict is at_risk
//
// Numeric values are parsed strictly: the whole token must be a number in
// the flag's range, or the run stops with exit status 2.
//
// Exit status: 0 ok, 2 usage error or a mechanism setup no fabric can run
// (e.g. a GFC threshold outside its mapping's domain), 3 at-risk verdict
// under --fail.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "analyze/analyze.hpp"
#include "analyze/repair.hpp"
#include "analyze/scenario.hpp"
#include "analyze/sweep.hpp"
#include "mech/cbd_routing.hpp"
#include "runner/fabric.hpp"

using namespace gfc;

namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s SCENARIO [--fc NAME] [--buffer BYTES]\n"
      "          [--b1 B] [--b0 B] [--bm B] [--xoff B] [--xon B]\n"
      "          [--period-us T] [--max-cycles N] [--json PATH] [--fail]\n"
      "          [--cbd-free-routing] [--failures K] [--suggest-repairs]\n"
      "SCENARIO: ring[:N[:H]] | fattree:K[:seed=S|:fail=a,b] | incast:N |"
      " loop2\n"
      "          (%s --list-scenarios for details)\n",
      prog, prog);
  return 2;
}

int list_scenarios() {
  std::printf(
      "gfc-analyze scenarios (SCENARIO argument grammar):\n"
      "  ring              3-switch ring, flows i -> i+2 (Figure 1)\n"
      "  ring:N            N-switch ring, flows i -> i+2\n"
      "  ring:N:H          N-switch ring, flows i -> i+H clockwise\n"
      "  fattree:K         k-ary fat-tree, shortest-path ECMP, no failures\n"
      "  fattree:K:seed=S  + Table 1 recipe: 5%% random switch-link failures\n"
      "                    from the k-salted seed stream, CBD stress flows\n"
      "                    when the failure set admits them\n"
      "  fattree:K:fail=a,b,...\n"
      "                    + fail the a-th, b-th, ... switch-to-switch link\n"
      "                    (indices into the deterministic switch-link list)\n"
      "  incast:N          N senders, 1 receiver, 1 switch dumbbell\n"
      "  loop2             2-switch routing loop (minimal lint fixture)\n"
      "Ranges: ring 3 <= N <= %ld and 1 <= H < N; fattree even K in\n"
      "[2, %ld]; incast 1 <= N <= %ld; seed S >= 1. Any other value exits 2.\n",
      analyze::kMaxRingSwitches, analyze::kMaxFatTreeK,
      analyze::kMaxIncastSenders);
  return 0;
}

/// A byte count from the command line; a terabyte per port is beyond any
/// switch, and the cap keeps the bound arithmetic far from overflow.
constexpr std::int64_t kMaxBytes = 1'000'000'000'000;

/// Strict integer: the whole of `text`, within [lo, hi].
bool parse_int(const char* flag, const char* text, std::int64_t lo,
               std::int64_t hi, std::int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got '%s'\n",
                 flag, static_cast<long long>(lo), static_cast<long long>(hi),
                 text);
    return false;
  }
  *out = v;
  return true;
}

/// Strict feedback period in microseconds: at least one simulator tick
/// (1 ps) and at most 1e9 us, so sim::us() cannot overflow.
bool parse_period_us(const char* text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !(v > 0 && v <= 1e9) || sim::us(v) < 1) {
    std::fprintf(stderr,
                 "--period-us: expected a period of 1 ps to 1e9 us, got '%s'\n",
                 text);
    return false;
  }
  *out = v;
  return true;
}

bool parse_fc_kind(const std::string& name, runner::FcKind* out) {
  if (name == "none") *out = runner::FcKind::kNone;
  else if (name == "pfc") *out = runner::FcKind::kPfc;
  else if (name == "cbfc") *out = runner::FcKind::kCbfc;
  else if (name == "gfc-buffer") *out = runner::FcKind::kGfcBuffer;
  else if (name == "gfc-time") *out = runner::FcKind::kGfcTime;
  else if (name == "gfc-conceptual") *out = runner::FcKind::kGfcConceptual;
  else if (name == "dcfit") *out = runner::FcKind::kDcfit;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string spec = argv[1];
  if (spec == "--list-scenarios") return list_scenarios();

  runner::FcKind kind = runner::FcKind::kPfc;
  std::int64_t buffer = 300'000;
  std::int64_t b1 = -1, b0 = -1, bm = -1, xoff = -1, xon = -1;
  double period_us = -1;
  std::size_t max_cycles = 4096;
  std::string json_path;
  bool fail_on_risk = false;
  bool cbd_free = false;
  int failures = 0;
  bool suggest_repairs = false;

  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](std::int64_t lo, std::int64_t hi, std::int64_t* out) {
      return i + 1 < argc && parse_int(a, argv[++i], lo, hi, out);
    };
    if (!std::strcmp(a, "--fc")) {
      if (i + 1 >= argc || !parse_fc_kind(argv[++i], &kind))
        return usage(argv[0]);
    } else if (!std::strcmp(a, "--buffer")) {
      if (!value(1, kMaxBytes, &buffer)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--b1")) {
      if (!value(0, kMaxBytes, &b1)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--b0")) {
      if (!value(0, kMaxBytes, &b0)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--bm")) {
      if (!value(0, kMaxBytes, &bm)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--xoff")) {
      if (!value(0, kMaxBytes, &xoff)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--xon")) {
      if (!value(0, kMaxBytes, &xon)) return usage(argv[0]);
    } else if (!std::strcmp(a, "--period-us")) {
      if (i + 1 >= argc || !parse_period_us(argv[++i], &period_us))
        return usage(argv[0]);
    } else if (!std::strcmp(a, "--max-cycles")) {
      std::int64_t v = 0;
      if (!value(1, std::numeric_limits<std::int64_t>::max(), &v))
        return usage(argv[0]);
      max_cycles = static_cast<std::size_t>(v);
    } else if (!std::strcmp(a, "--json")) {
      if (i + 1 >= argc) return usage(argv[0]);
      json_path = argv[++i];
    } else if (!std::strcmp(a, "--failures")) {
      std::int64_t v = 0;
      if (!value(1, 8, &v)) return usage(argv[0]);
      failures = static_cast<int>(v);
    } else if (!std::strcmp(a, "--suggest-repairs")) {
      suggest_repairs = true;
    } else if (!std::strcmp(a, "--fail")) {
      fail_on_risk = true;
    } else if (!std::strcmp(a, "--cbd-free-routing")) {
      cbd_free = true;
    } else if (!std::strcmp(a, "--list-scenarios")) {
      return list_scenarios();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return usage(argv[0]);
    }
  }

  analyze::BuiltScenario scenario;
  std::string err;
  if (!analyze::build_scenario(spec, &scenario, &err)) {
    std::fprintf(stderr, "%s\n(%s --list-scenarios shows the grammar)\n",
                 err.c_str(), argv[0]);
    return 2;
  }

  if (cbd_free) {
    // Re-route before analysis: the verdict then reflects the restricted
    // tables (expected: zero CBD cycles on any topology).
    mech::RoutingStats rstats;
    scenario.routing = mech::cbd_free_routes(scenario.topo, &rstats);
    std::fprintf(stderr,
                 "cbd-free routing installed: cbd_free=%s pairs=%zu "
                 "unroutable=%zu stretch avg=%.3f max=%.3f imbalance=%.3f\n",
                 rstats.cbd_free ? "yes" : "NO", rstats.pairs,
                 rstats.unroutable_pairs, rstats.avg_stretch,
                 rstats.max_stretch, rstats.load_imbalance);
  }

  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  cfg.fc = runner::FcSetup::derive(kind, buffer, cfg.link.rate, cfg.tau(),
                                   cfg.link.mtu);
  // Explicit overrides replace the derived values field by field, so a
  // deliberately out-of-bound parameter can be checked against the bound.
  if (b1 >= 0) cfg.fc.b1 = b1;
  if (b0 >= 0) cfg.fc.b0 = b0;
  if (bm >= 0) cfg.fc.bm = bm;
  if (xoff >= 0) cfg.fc.xoff = xoff;
  if (xon >= 0) cfg.fc.xon = xon;
  if (period_us > 0) cfg.fc.period = sim::us(period_us);
  // Build the flow-control module a fabric would build from this setup: its
  // GFC mapping rejects thresholds outside the mapping's domain (B_0 < 0,
  // B_1 <= 0, ...), which no fabric can run, so no verdict is issued.
  try {
    runner::make_fc_module(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  analyze::Input in;
  in.topo = &scenario.topo;
  in.routing = &scenario.routing;
  in.cfg = cfg;
  in.flows = scenario.flows;
  in.max_cycles = max_cycles;
  in.scenario = scenario.name;
  analyze::Report report = failures > 0 ? analyze::sweep_failures(in, failures)
                                        : analyze::analyze(in);
  if (suggest_repairs) report.repairs = analyze::suggest_repairs(in, report);

  if (json_path == "-") {
    std::fputs(report.json().c_str(), stdout);
  } else {
    report.print_human();
    if (!json_path.empty()) {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 2;
      }
      std::fputs(report.json().c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
  }

  if (fail_on_risk && report.verdict() == analyze::Verdict::kAtRisk) return 3;
  return 0;
}
