#include "topo/cbd.hpp"

#include <algorithm>

namespace gfc::topo {

BufferDependencyGraph::BufferDependencyGraph(const Topology& topo)
    : topo_(&topo), switch_pos_(topo.node_count(), -1) {
  const auto& switches = topo.switches();
  for (std::size_t i = 0; i < switches.size(); ++i)
    switch_pos_[static_cast<std::size_t>(switches[i])] =
        static_cast<std::int32_t>(i);
  vertex_ids_.assign(switches.size() * switches.size(), -1);
}

int BufferDependencyGraph::vertex(DirectedLink l) {
  const std::size_t slot =
      static_cast<std::size_t>(switch_pos_[static_cast<std::size_t>(l.first)]) *
          topo_->switches().size() +
      static_cast<std::size_t>(switch_pos_[static_cast<std::size_t>(l.second)]);
  std::int32_t& id = vertex_ids_[slot];
  if (id < 0) {
    id = static_cast<std::int32_t>(vertices_.size());
    vertices_.push_back(l);
    edges_.emplace_back();
  }
  return id;
}

void BufferDependencyGraph::add_path(const std::vector<NodeIndex>& path) {
  // Collect consecutive switch->switch hops, then chain them.
  std::vector<DirectedLink> hops;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!topo_->is_host(path[i]) && !topo_->is_host(path[i + 1]))
      hops.push_back({path[i], path[i + 1]});
  }
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const int a = vertex(hops[i]);
    const int b = vertex(hops[i + 1]);
    auto& out = edges_[static_cast<std::size_t>(a)];
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
  }
}

std::vector<ClosureOp> class_closure_ops(const Topology& topo,
                                         const RoutingTable& routing,
                                         std::size_t cls) {
  // Only switches actually reachable from some source host along the ECMP
  // DAG contribute dependencies: a next-hop table entry no packet can
  // arrive at (common after failures, when a switch keeps a bounce route
  // toward d but nothing routes *through* it toward d) must not fabricate
  // cycles. Every host's row seeds the walk: a member's own row is the
  // one the other members see (empty in a one-member class).
  std::vector<ClosureOp> ops;
  std::vector<char> reachable(topo.node_count());
  std::vector<NodeIndex> frontier;
  const auto reach = [&](NodeIndex from) {
    for (NodeIndex n : routing.row(cls, from)) {
      if (!topo.is_host(n) && !reachable[static_cast<std::size_t>(n)]) {
        reachable[static_cast<std::size_t>(n)] = 1;
        frontier.push_back(n);
      }
    }
  };
  for (NodeIndex s : topo.hosts()) reach(s);
  while (!frontier.empty()) {
    const NodeIndex v = frontier.back();
    frontier.pop_back();
    reach(v);
  }
  for (NodeIndex s : topo.switches()) {
    if (!reachable[static_cast<std::size_t>(s)]) continue;
    for (NodeIndex n : routing.row(cls, s)) {
      if (topo.is_host(n)) continue;
      ops.push_back({{s, n}, {}, false});
      for (NodeIndex m : routing.row(cls, n)) {
        if (topo.is_host(m)) continue;
        ops.push_back({{s, n}, {n, m}, true});
      }
    }
  }
  return ops;
}

void BufferDependencyGraph::apply_ops(const std::vector<ClosureOp>& ops) {
  for (const ClosureOp& op : ops) {
    const int a = vertex(op.a);
    if (!op.edge) continue;
    const int b = vertex(op.b);
    auto& out = edges_[static_cast<std::size_t>(a)];
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
  }
}

void BufferDependencyGraph::add_routing_closure(const RoutingTable& routing) {
  for (std::size_t c = 0; c < routing.class_count(); ++c)
    apply_ops(class_closure_ops(*topo_, routing, c));
}

void canonicalize_cycle(std::vector<DirectedLink>* cycle) {
  if (cycle->empty()) return;
  const auto smallest = std::min_element(cycle->begin(), cycle->end());
  std::rotate(cycle->begin(), smallest, cycle->end());
}

std::string describe_links(const Topology& topo,
                           const std::vector<DirectedLink>& cycle) {
  std::string out;
  for (const auto& [from, to] : cycle) {
    if (!out.empty()) out += " -> ";
    out += topo.node(from).name + "->" + topo.node(to).name;
  }
  return out;
}

CbdResult BufferDependencyGraph::find_cycle() const {
  CbdResult result;
  const int n = static_cast<int>(vertices_.size());
  // Iterative DFS with tri-color marking; reconstruct the cycle from the
  // parent chain when a back edge is found. Roots are tried in ascending
  // vertex order and edges in insertion order, so the selected cycle is a
  // pure function of the graph construction sequence; the witness is then
  // rotated into canonical smallest-link-first form.
  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0 white 1 grey 2 black
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    color[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [v, next_edge] = stack.back();
      const auto& out = edges_[static_cast<std::size_t>(v)];
      if (next_edge < out.size()) {
        const int w = out[next_edge++];
        if (color[static_cast<std::size_t>(w)] == 0) {
          color[static_cast<std::size_t>(w)] = 1;
          parent[static_cast<std::size_t>(w)] = v;
          stack.push_back({w, 0});
        } else if (color[static_cast<std::size_t>(w)] == 1) {
          // Back edge v -> w closes a cycle w -> ... -> v -> w.
          result.has_cbd = true;
          std::vector<int> cyc{v};
          for (int u = v; u != w; u = parent[static_cast<std::size_t>(u)])
            cyc.push_back(parent[static_cast<std::size_t>(u)]);
          std::reverse(cyc.begin(), cyc.end());
          for (int u : cyc)
            result.cycle.push_back(vertices_[static_cast<std::size_t>(u)]);
          canonicalize_cycle(&result.cycle);
          return result;
        }
      } else {
        color[static_cast<std::size_t>(v)] = 2;
        stack.pop_back();
      }
    }
  }
  return result;
}

bool cbd_prone(const Topology& topo, const RoutingTable& routing) {
  BufferDependencyGraph graph(topo);
  graph.add_routing_closure(routing);
  return graph.find_cycle().has_cbd;
}

}  // namespace gfc::topo
