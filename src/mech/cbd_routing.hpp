// Deadlock avoidance by route restriction (Mendlovic & Matias, "Deadlock-
// free routing for lossless networks", arXiv 2503.04583): an up*/down*
// turn-elimination pass that provably removes every cyclic buffer
// dependency, at the cost of path stretch and load concentration near the
// spanning-tree root — the avoidance-by-routing baseline GFC competes
// against.
//
// Construction:
//  1. Rank every switch by BFS visit order from a deterministic root (the
//     smallest switch index; one BFS per connected component). An "up"
//     hop moves to a smaller rank (toward the root), a "down" hop to a
//     larger one.
//  2. A legal path is up* then down*. Per destination, compute the
//     all-down distance (reverse BFS over down hops from the destination's
//     edge switches) and the legal distance (down distance, or one up hop
//     plus the up-neighbor's legal distance, in ascending rank order).
//  3. Next hops are phase-free by the "descend as soon as possible" rule:
//     a switch with a finite all-down distance only offers down hops (all
//     ECMP candidates continue descending), otherwise only up hops. Every
//     realized path is therefore up* down* regardless of ECMP choices, and
//     the induced channel-dependency graph is acyclic (classic Autonet
//     argument; verified per call via topo::cbd_prone and
//     reported in RoutingStats::cbd_free).
#pragma once

#include <cstddef>

#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::mech {

struct RoutingStats {
  /// Re-verified on every call: the restricted routing closure has no CBD.
  bool cbd_free = false;
  std::size_t pairs = 0;             // routable ordered host pairs
  std::size_t unroutable_pairs = 0;  // pairs the restriction cannot serve
  /// Restricted-path hops / shortest-path hops (salt-0 traces).
  double avg_stretch = 1.0;
  double max_stretch = 1.0;
  /// max / mean load over directed switch-to-switch links (salt-0 traces,
  /// all ordered host pairs) — the concentration cost of tree-ordered
  /// routing.
  double load_imbalance = 1.0;
};

/// The restricted routing table for `topo` (hosts and switches filled in,
/// same RoutingTable contract as topo::compute_shortest_paths).
topo::RoutingTable cbd_free_routes(const topo::Topology& topo,
                                   RoutingStats* stats = nullptr);

}  // namespace gfc::mech
