// Deterministic directed-graph algorithms for the static analyzer:
// Tarjan's strongly-connected components and Johnson's enumeration of all
// elementary cycles. Both are pure functions of the adjacency lists (no
// hashing, no address-ordered iteration), so results are byte-identical
// across runs and platforms.
#pragma once

#include <cstddef>
#include <vector>

namespace gfc::analyze {

/// Adjacency-list digraph: adj[v] lists v's out-neighbors.
using Adjacency = std::vector<std::vector<int>>;

/// Tarjan SCC decomposition. Components are returned with their member
/// vertices sorted ascending, and the component list itself sorted by
/// smallest member, so the output is canonical for a given graph.
std::vector<std::vector<int>> strongly_connected_components(
    const Adjacency& adj);

/// Does the component (one entry of strongly_connected_components) hold a
/// cycle: more than one member, or a self-loop?
bool cyclic_component(const Adjacency& adj, const std::vector<int>& comp);

struct CycleEnumeration {
  /// Every elementary (simple, closed) cycle in discovery order: Johnson
  /// roots ascending, each cycle leading with its root (its smallest
  /// vertex). Callers that need a canonical order sort it themselves.
  std::vector<std::vector<int>> cycles;
  /// True when enumeration stopped at `max_cycles`; `cycles` is then a
  /// prefix of the discovery order, not the whole truth.
  bool truncated = false;
};

/// Johnson's algorithm (SIAM J. Comput. 1975): all elementary cycles of
/// the digraph, capped at `max_cycles`. Self-loops count as length-1
/// cycles. Worst-case cost O((V + E) * (#cycles + 1)).
///
/// Roots are taken in ascending vertex order among the cyclic components
/// of the subgraph induced by the vertices >= the last root, and each
/// vertex's out-edges are followed in list order. When the digraph has
/// exactly one cyclic SCC, the run on the adjacency restricted to that
/// SCC (same vertex ids, same edge order) therefore finds the same
/// cycles in the same order, up to the same cap, with the same
/// `truncated` flag.
CycleEnumeration elementary_cycles(const Adjacency& adj,
                                   std::size_t max_cycles = 4096);

}  // namespace gfc::analyze
