// Cyclic-buffer-dependency (CBD) analysis — the circular-wait condition.
//
// Vertices of the dependency graph are directed switch-to-switch links
// (equivalently: the downstream ingress buffer each link feeds). A flow
// whose path crosses switches ... -> s1 -> s2 -> s3 -> ... makes the buffer
// at (s1->s2) depend on the buffer at (s2->s3). A directed cycle is a CBD.
#pragma once

#include <cstdint>
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

/// One step of a destination class's routing-closure construction: ensure
/// the vertex for `a` exists; when `edge` is set, also ensure `b`'s vertex
/// and append the (deduplicated) dependency edge a -> b. Replaying a
/// class's op sequence performs exactly the vertex creations and
/// edge appends add_routing_closure would — in the same order — which is
/// the contract the incremental analyzer's byte-identity rests on.
struct ClosureOp {
  DirectedLink a;
  DirectedLink b;
  bool edge = false;
};

class BufferDependencyGraph {
 public:
  explicit BufferDependencyGraph(const Topology& topo);

  /// Add the dependencies induced by one concrete flow path (node ids).
  void add_path(const std::vector<NodeIndex>& path);

  /// Add dependencies for *every* ECMP option toward *every* host: the
  /// union routing closure. A cycle here means the scenario is CBD-prone
  /// (the pre-filter used for Table 1). Replays class_closure_ops() once
  /// per destination class, in class order; replaying a class again for
  /// each further member would create no vertex and no edge, so this is
  /// the per-host closure in hosts() order.
  void add_routing_closure(const RoutingTable& routing);

  /// Replay a recorded op sequence (see ClosureOp). Idempotent per op:
  /// existing vertices and edges are reused, so mixing replay with
  /// add_path/add_routing_closure is safe.
  void apply_ops(const std::vector<ClosureOp>& ops);

  /// One witness cycle, deterministically selected: a DFS in ascending
  /// vertex order (vertices are numbered by first insertion, itself a
  /// deterministic function of the added paths/closure) reports the first
  /// back edge it meets, and the witness is rotated so its smallest
  /// DirectedLink comes first. Exhaustive enumeration with per-cycle
  /// metadata lives in analyze::analyze (src/analyze/).
  CbdResult find_cycle() const;

  std::size_t vertex_count() const { return vertices_.size(); }

  /// Vertex i's directed link. Exposed for the static analyzer.
  const std::vector<DirectedLink>& links() const { return vertices_; }
  /// Out-edges per vertex, in insertion order. Exposed for the analyzer.
  const std::vector<std::vector<int>>& adjacency() const { return edges_; }

 private:
  int vertex(DirectedLink l);

  const Topology* topo_;
  /// Each node's position in topo_->switches() (-1 for hosts).
  std::vector<std::int32_t> switch_pos_;
  /// Vertex id of the link (from, to) at switch_pos_[from] * switches +
  /// switch_pos_[to]; -1 until the link is first inserted.
  std::vector<std::int32_t> vertex_ids_;
  std::vector<DirectedLink> vertices_;
  std::vector<std::vector<int>> edges_;
};

/// The op sequence add_routing_closure performs for destination class
/// `cls` (the same as for each of its member hosts), in execution order.
/// A pure function of the topology's static structure (host/switch
/// partition) and the class's stored column: two calls with equal columns
/// return equal sequences, which is what lets the incremental analyzer
/// cache per-class ops and replay them unchanged after unrelated link
/// flaps.
std::vector<ClosureOp> class_closure_ops(const Topology& topo,
                                         const RoutingTable& routing,
                                         std::size_t cls);

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
