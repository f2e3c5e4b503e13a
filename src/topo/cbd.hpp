// Cyclic-buffer-dependency (CBD) analysis — the circular-wait condition.
//
// Vertices of the dependency graph are directed switch-to-switch links
// (equivalently: the downstream ingress buffer each link feeds). A flow
// whose path crosses switches ... -> s1 -> s2 -> s3 -> ... makes the buffer
// at (s1->s2) depend on the buffer at (s2->s3). A directed cycle is a CBD.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::topo {

/// A directed switch-to-switch hop.
using DirectedLink = std::pair<NodeIndex, NodeIndex>;

struct CbdResult {
  bool has_cbd = false;
  /// One witness cycle of directed links (empty if none), in canonical
  /// form: rotated so the smallest DirectedLink (lexicographic (from, to)
  /// order) leads. See find_cycle() for which cycle is selected.
  std::vector<DirectedLink> cycle;
};

class BufferDependencyGraph {
 public:
  explicit BufferDependencyGraph(const Topology& topo);

  /// The vertex of switch-to-switch link `l`, inserted on first use.
  /// Vertices are numbered in insertion order.
  int add_link(DirectedLink l);
  /// The dependency of `a`'s buffer on `b`'s: inserts `a`'s vertex, then
  /// `b`'s, then appends the edge a -> b unless `a` already has it. Out-
  /// edges keep insertion order.
  void add_dependency(DirectedLink a, DirectedLink b);

  /// Add the dependencies induced by one concrete flow path (node ids):
  /// each consecutive pair of its switch_hops().
  void add_path(const std::vector<NodeIndex>& path);

  /// Add dependencies for *every* ECMP option toward *every* host: the
  /// union routing closure. A cycle here means the scenario is CBD-prone
  /// (the pre-filter used for Table 1). Built per destination class, in
  /// class order: every switch s a source host can reach along the
  /// class's ECMP DAG, ascending, inserts (s, n) for each switch next hop
  /// n and the dependency (s, n) -> (n, m) for each switch next hop m of
  /// n. That is the per-host closure in hosts() order, since a class's
  /// further members would add no vertex and no edge.
  void add_routing_closure(const RoutingTable& routing);

  /// One witness cycle, deterministically selected: first_cycle() with
  /// roots in ascending vertex order and edges in insertion order (both a
  /// pure function of the construction sequence), rotated so its
  /// smallest DirectedLink comes first. Exhaustive enumeration with
  /// per-cycle metadata lives in analyze::analyze (src/analyze/).
  CbdResult find_cycle() const;

  std::size_t vertex_count() const { return vertices_.size(); }

  /// Vertex i's directed link. Exposed for the static analyzer.
  const std::vector<DirectedLink>& links() const { return vertices_; }
  /// Out-edges per vertex, in insertion order. Exposed for the analyzer.
  const std::vector<std::vector<int>>& adjacency() const { return edges_; }

 private:
  const Topology* topo_;
  /// Each node's position in topo_->switches() (-1 for hosts).
  std::vector<std::int32_t> switch_pos_;
  /// Vertex id of the link (from, to) at switch_pos_[from] * switches +
  /// switch_pos_[to]; -1 until the link is first inserted.
  std::vector<std::int32_t> vertex_ids_;
  std::vector<DirectedLink> vertices_;
  std::vector<std::vector<int>> edges_;
};

/// The consecutive switch-to-switch hops of a node path, in path order.
std::vector<DirectedLink> switch_hops(const Topology& topo,
                                      std::span<const NodeIndex> path);

/// Rotate a cycle of directed links so the smallest link (lexicographic
/// (from, to) order) comes first. The canonical form every witness and
/// enumerated cycle is reported in.
void canonicalize_cycle(std::vector<DirectedLink>* cycle);

/// "S0->S1 -> S1->S2 -> S2->S0" — a cycle rendered with topology names.
std::string describe_links(const Topology& topo,
                           const std::vector<DirectedLink>& cycle);

/// Convenience: is the routed topology CBD-prone at all?
bool cbd_prone(const Topology& topo, const RoutingTable& routing);

}  // namespace gfc::topo
