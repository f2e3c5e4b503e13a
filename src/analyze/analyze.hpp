// Static deadlock-risk analysis, run before any event is scheduled.
//
// The paper's premise is that deadlock is a *structural* property: a
// cyclic buffer dependency (circular wait) plus a mechanism that can
// hold-and-wait. Both halves are checkable from the configuration alone:
//
//  1. CBD enumeration — Tarjan SCC decomposition of the buffer-dependency
//     graph plus Johnson's algorithm listing *all* elementary cycles
//     (topo::BufferDependencyGraph::find_cycle stops at one witness), with
//     per-cycle metadata: length, links, which configured flows cover it.
//  2. Safety-bound verification — recompute the worst-case feedback
//     latency tau from wire delay + serialization + processing time, then
//     check the mechanism's proven bound: B_1 <= B_m - 2*C*tau
//     (buffer-based GFC, Sec 4.2/5.4), Theorem 5.1's
//     B_0 <= B_m - (sqrt(tau/T)+1)^2 * C * T (time-based GFC), Theorem
//     4.1's B_0 <= B_m - 4*C*tau (conceptual), and the PFC lossless
//     headroom XOFF + C*tau + slack <= capacity.
//  3. Routing lints — unroutable host pairs, routing loops in a
//     destination's ECMP next-hop graph, and fat-tree valley (down-then-up)
//     violations in the ECMP closure.
//
// The verdict is sound in one direction, matching the paper's theorems:
// "deadlock_free" (no CBD) implies the dynamic detector can never fire,
// and "safe" (CBD present, but a GFC bound rules out hold-and-wait)
// implies no GFC stall. "at_risk" is a may-deadlock verdict: whether the
// risk is realized depends on which flows actually fill the cycle.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/mode.hpp"
#include "runner/config.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::analyze {

/// One elementary cycle of the buffer-dependency graph, canonical form
/// (smallest link first; see topo::canonicalize_cycle).
struct CycleInfo {
  std::vector<topo::DirectedLink> links;
  /// links rendered with topology names, e.g. "S0->S1" (same order).
  std::vector<std::string> link_names;
  /// Indices into Input::flows whose traced path crosses at least one
  /// dependency edge of this cycle.
  std::vector<int> flows;
  /// True when every dependency edge of the cycle is induced by at least
  /// one configured flow — the "specific flow combination that fills up
  /// the CBD" exists in this very scenario.
  bool activated = false;
};

/// One verified inequality `lhs <= rhs`.
struct BoundCheck {
  std::string name;     // e.g. "gfc_buffer_b1"
  std::string formula;  // human-readable form of the inequality
  std::int64_t lhs = 0;
  std::int64_t rhs = 0;
  bool ok = false;
};

struct LintFinding {
  std::string kind;  // "unroutable" | "routing_loop" | "valley"
  std::string message;
};

enum class Verdict {
  kDeadlockFree,  // no CBD: circular wait is structurally impossible
  kSafe,          // CBD exists, but the mechanism cannot hold-and-wait
  kAtRisk,        // CBD exists and the mechanism can hold-and-wait
};

const char* verdict_name(Verdict v);

/// One <=k-link-failure combination's re-analysis in a failure sweep.
struct FailureCombo {
  /// Failed switch-switch link indices, ascending (a combination).
  std::vector<topo::LinkIndex> links;
  /// Each failed link as "A-B" endpoint names (same order).
  std::vector<std::string> link_names;
  Verdict verdict = Verdict::kDeadlockFree;
  std::size_t cycle_count = 0;
  bool truncated = false;
  /// Some host pair became unroutable under this combo.
  bool disconnects = false;
  /// Baseline verdict was kDeadlockFree and this combo's is not: the
  /// failures manufactured a circular wait that wasn't there.
  bool flips = false;
};

/// `gfc-analyze --failures k`: every combination of at most k
/// switch-to-switch link failures, re-routed (shortest paths over the
/// surviving topology) and re-analyzed. See sweep.hpp.
struct FailureSweep {
  int max_failures = 0;
  Verdict baseline = Verdict::kDeadlockFree;
  std::size_t combos = 0;   // combinations examined
  std::size_t flipped = 0;  // combos with flips == true
  std::vector<FailureCombo> results;
  /// Minimal culprit sets: indices (into results) of flipping combos no
  /// proper subset of which flips — the smallest failure patterns that
  /// break the deadlock-freedom argument.
  std::vector<std::size_t> culprits;
};

/// One proposed repair: a removal set that breaks every targeted cycle,
/// statically re-verified. See repair.hpp.
struct RepairSuggestion {
  std::string kind;                   // "link_removal" | "turn_restriction"
  std::vector<std::string> removals;  // link names "A-B" or turns "A->B->C"
  std::size_t cycles_broken = 0;
  bool verified_cbd_free = false;
};

/// `gfc-analyze --suggest-repairs`: greedy minimal hitting sets over the
/// enumerated (preferring activated) cycles.
struct Repairs {
  /// True when only activated cycles were targeted (some were activated);
  /// false means every enumerated cycle was targeted.
  bool targeting_activated = false;
  std::vector<RepairSuggestion> suggestions;
};

/// A flow whose concrete path should be checked against the cycles.
struct FlowSpec {
  topo::NodeIndex src = -1;
  topo::NodeIndex dst = -1;
  std::uint64_t salt = 0;
};

struct Input {
  const topo::Topology* topo = nullptr;
  const topo::RoutingTable* routing = nullptr;
  runner::ScenarioConfig cfg;
  /// Optional configured flows (per-cycle activation metadata).
  std::vector<FlowSpec> flows;
  /// Cap on Johnson's enumeration; cycles beyond it set Report::truncated.
  std::size_t max_cycles = 4096;
  /// Label echoed into the report header ("fig09-ring", trial name, ...).
  std::string scenario;
};

struct Report {
  std::string scenario;
  runner::FcKind mechanism_kind = runner::FcKind::kNone;
  std::string mechanism;
  std::size_t hosts = 0;
  std::size_t switches = 0;
  std::size_t links_up = 0;
  std::int64_t buffer_per_port = 0;

  /// Tau breakdown (Eq. 6) recomputed from the link parameters.
  sim::TimePs tau_serialization = 0;  // 2 * MTU / C
  sim::TimePs tau_wire = 0;           // 2 * t_w
  sim::TimePs tau_processing = 0;     // t_r
  sim::TimePs tau_total = 0;

  /// Buffer-dependency graph shape.
  std::size_t bdg_vertices = 0;
  std::size_t bdg_edges = 0;
  std::size_t sccs = 0;
  std::size_t cyclic_sccs = 0;
  bool truncated = false;  // enumeration hit Input::max_cycles
  std::vector<CycleInfo> cycles;

  std::vector<BoundCheck> bounds;
  std::vector<LintFinding> lints;

  /// Engaged only by sweep_failures() / suggest_repairs(); absent from
  /// the plain analyze() report (and from its JSON).
  std::optional<FailureSweep> failure_sweep;
  std::optional<Repairs> repairs;

  /// No CBD at all (and the enumeration saw the whole graph).
  bool cbd_free() const { return cycles.empty() && !truncated; }
  /// Every verified inequality holds.
  bool bounds_ok() const;
  /// Truncated enumerations are always kAtRisk: a verdict from a prefix
  /// of the cycle set proves nothing about the cycles it never saw.
  Verdict verdict() const;

  /// Deterministic pretty-printed JSON ("gfc-analyze-v2" schema).
  std::string json() const;
  /// Human report; `out` defaults to stdout.
  void print_human(std::FILE* out = nullptr) const;
  /// One-line verdict summary, e.g.
  /// "at_risk: 3 CBD cycles (1 activated), 1 bound violation, 2 lints".
  std::string summary() const;
};

Report analyze(const Input& in);

/// Is `cycle` (canonical form; see topo::canonicalize_cycle) one of the
/// report's enumerated cycles? The membership test behind the runtime
/// witness cross-check: every deadlock the detector catches must appear
/// in the current static enumeration, or the analyzer is unsound.
bool report_contains_cycle(const Report& rep,
                           const std::vector<topo::DirectedLink>& cycle);

/// Cheap CBD-prone screening over the full ECMP routing closure — the
/// pre-filter large topology sweeps (paper-scale Table 1) run per sample
/// before deciding whether to spend a simulation on it. One witness-cycle
/// DFS, no Johnson enumeration, no bound checks: O(V + E) in the
/// buffer-dependency graph versus a full analyze() pass.
struct CbdScreen {
  bool prone = false;
  /// Canonical witness cycle (empty when !prone).
  std::vector<topo::DirectedLink> cycle;
  /// The witness rendered with topology names ("S0->S1 -> ..."), for
  /// bench logs; empty when !prone.
  std::string witness;
};

CbdScreen screen_cbd(const topo::Topology& topo,
                     const topo::RoutingTable& routing);

/// Thrown by preflight_verdict() in PreflightMode::kFail when the verdict
/// is kAtRisk (worker pools capture it as the trial's failure text).
class PreflightError : public std::runtime_error {
 public:
  explicit PreflightError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The Fabric::install_routing pre-flight check on a Report (Fabric gets
/// it from its incremental analyzer): print the summary to stderr when
/// the verdict isn't clean, throw PreflightError on kAtRisk under kFail,
/// return the verdict. Prints nothing and never throws under kOff.
Verdict preflight_verdict(PreflightMode mode, const Report& rep);

}  // namespace gfc::analyze
