#include "topo/cbd.hpp"

#include <algorithm>
#include <ranges>

#include "topo/first_cycle.hpp"

namespace gfc::topo {

BufferDependencyGraph::BufferDependencyGraph(const Topology& topo)
    : topo_(&topo), switch_pos_(topo.node_count(), -1) {
  const auto& switches = topo.switches();
  for (std::size_t i = 0; i < switches.size(); ++i)
    switch_pos_[static_cast<std::size_t>(switches[i])] =
        static_cast<std::int32_t>(i);
  vertex_ids_.assign(switches.size() * switches.size(), -1);
}

int BufferDependencyGraph::add_link(DirectedLink l) {
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

void BufferDependencyGraph::add_dependency(DirectedLink a, DirectedLink b) {
  const int from = add_link(a);
  const int to = add_link(b);
  auto& out = edges_[static_cast<std::size_t>(from)];
  if (std::find(out.begin(), out.end(), to) == out.end()) out.push_back(to);
}

std::vector<DirectedLink> switch_hops(const Topology& topo,
                                      std::span<const NodeIndex> path) {
  std::vector<DirectedLink> hops;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!topo.is_host(path[i]) && !topo.is_host(path[i + 1]))
      hops.push_back({path[i], path[i + 1]});
  return hops;
}

void BufferDependencyGraph::add_path(const std::vector<NodeIndex>& path) {
  const std::vector<DirectedLink> hops = switch_hops(*topo_, path);
  for (std::size_t i = 0; i + 1 < hops.size(); ++i)
    add_dependency(hops[i], hops[i + 1]);
}

void BufferDependencyGraph::add_routing_closure(const RoutingTable& routing) {
  // Only switches actually reachable from some source host along the ECMP
  // DAG contribute dependencies: a next-hop table entry no packet can
  // arrive at (common after failures, when a switch keeps a bounce route
  // toward d but nothing routes *through* it toward d) must not fabricate
  // cycles. Every host's row seeds the walk: a member's own row is the
  // one the other members see (empty in a one-member class).
  const Topology& topo = *topo_;
  std::vector<char> reachable(topo.node_count());
  std::vector<NodeIndex> frontier;
  for (std::size_t c = 0; c < routing.class_count(); ++c) {
    std::fill(reachable.begin(), reachable.end(), 0);
    const auto reach = [&](NodeIndex from) {
      for (NodeIndex n : routing.row(c, from)) {
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
      for (NodeIndex n : routing.row(c, s)) {
        if (topo.is_host(n)) continue;
        add_link({s, n});
        for (NodeIndex m : routing.row(c, n))
          if (!topo.is_host(m)) add_dependency({s, n}, {n, m});
      }
    }
  }
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
  const std::vector<int> cycle = first_cycle(
      vertices_.size(), std::views::iota(0, static_cast<int>(vertices_.size())),
      [this](int v) -> const std::vector<int>& {
        return edges_[static_cast<std::size_t>(v)];
      });
  result.has_cbd = !cycle.empty();
  for (const int v : cycle)
    result.cycle.push_back(vertices_[static_cast<std::size_t>(v)]);
  canonicalize_cycle(&result.cycle);
  return result;
}

bool cbd_prone(const Topology& topo, const RoutingTable& routing) {
  BufferDependencyGraph graph(topo);
  graph.add_routing_closure(routing);
  return graph.find_cycle().has_cbd;
}

}  // namespace gfc::topo
