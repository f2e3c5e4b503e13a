// Named analysis scenarios for the gfc-analyze CLI and the golden-report
// tests: a tiny spec grammar that builds (Topology, RoutingTable, flows)
// without constructing any Fabric or scheduling any event.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::analyze {

/// Ranges of the spec integers. K = 32 is 8,192 hosts, twice the paper's
/// largest fat-tree; the ring and incast caps are as far beyond its
/// figures.
inline constexpr long kMaxFatTreeK = 32;
inline constexpr long kMaxRingSwitches = 1024;
inline constexpr long kMaxIncastSenders = 1024;

/// A scenario realized for static analysis only.
struct BuiltScenario {
  std::string name;  // normalized spec, echoed into the report
  topo::Topology topo;
  topo::RoutingTable routing;
  std::vector<FlowSpec> flows;
};

/// Build a scenario from a spec string:
///   ring[:N[:H]]        N-switch clockwise ring (default 3), flow i ->
///                       i+H hosts clockwise (default 2) — Figure 1 / 9;
///                       3 <= N <= kMaxRingSwitches, 1 <= H < N
///   fattree:K           intact fat-tree, shortest-path ECMP — Figure 12;
///                       even K in [2, kMaxFatTreeK]
///   fattree:K:seed=S    + random 5% link failures from seed S, plus the
///                       Table 1 CBD stress flows when the witness cycle
///                       is coverable
///   fattree:K:fail=a,b  + the explicit switch-link failure list (indices
///                       into Topology::switch_links() order)
///   incast:N            N senders, one switch, one receiver — Figure 5/20;
///                       1 <= N <= kMaxIncastSenders
///   loop2               2-switch topology whose table bounces traffic
///                       toward H1 between S0 and S1 (routing-loop demo)
/// Every integer is parsed strictly: the whole token, within its range.
/// Returns false and sets *err (naming the part and its range) on a
/// malformed or out-of-range spec.
bool build_scenario(const std::string& spec, BuiltScenario* out,
                    std::string* err);

}  // namespace gfc::analyze
