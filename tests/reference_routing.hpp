// Reference per-host routing for differential testing.
//
// topo::compute_shortest_paths, mech::cbd_free_routes and the routing
// closure used to run once per destination host, over a table with one
// next-hop vector per (node, host). Their per-host bodies are kept here,
// changed only to fill that plain table, as the executable specification
// of what the destination-class tables must hold: tests/routing_test.cpp
// checks every next_hops(at, dst) against them element for element and
// the class-keyed closure against a per-host replay. Keep them frozen.
#pragma once

#include <algorithm>
#include <deque>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/topology.hpp"

namespace gfc::topo::testref {

/// One next-hop vector per (node, destination host).
class PerHostRoutes {
 public:
  explicit PerHostRoutes(std::size_t node_count)
      : n_(node_count), table_(n_ * n_) {}

  const std::vector<NodeIndex>& next_hops(NodeIndex at, NodeIndex dst) const {
    return table_[idx(at, dst)];
  }
  void set_next_hops(NodeIndex at, NodeIndex dst, std::vector<NodeIndex> hops) {
    table_[idx(at, dst)] = std::move(hops);
  }
  bool routable(NodeIndex src, NodeIndex dst) const {
    return !next_hops(src, dst).empty();
  }

 private:
  std::size_t idx(NodeIndex at, NodeIndex dst) const {
    return static_cast<std::size_t>(at) * n_ + static_cast<std::size_t>(dst);
  }
  std::size_t n_;
  std::vector<std::vector<NodeIndex>> table_;
};

/// BFS all-shortest-paths toward every host, over up links.
inline PerHostRoutes reference_shortest_paths(const Topology& topo) {
  const std::size_t n = topo.node_count();
  PerHostRoutes table(n);
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> dist(n);
  for (NodeIndex dst : topo.hosts()) {
    dist.assign(n, kInf);
    dist[static_cast<std::size_t>(dst)] = 0;
    std::deque<NodeIndex> bfs{dst};
    while (!bfs.empty()) {
      const NodeIndex v = bfs.front();
      bfs.pop_front();
      for (const auto& [nbr, link] : topo.neighbors(v)) {
        // Hosts never transit traffic: only the destination itself may be
        // an intermediate BFS node on the host layer.
        if (topo.is_host(nbr)) continue;
        if (dist[static_cast<std::size_t>(nbr)] == kInf) {
          dist[static_cast<std::size_t>(nbr)] = dist[static_cast<std::size_t>(v)] + 1;
          bfs.push_back(nbr);
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      const NodeIndex at = static_cast<NodeIndex>(v);
      if (at == dst) continue;
      std::vector<NodeIndex> hops;
      if (topo.is_host(at)) {
        // Source hosts (BFS never labels them) exit via their closest
        // attached switch(es).
        int best = kInf;
        for (const auto& [nbr, link] : topo.neighbors(at)) {
          if (topo.is_host(nbr)) continue;
          const int d = dist[static_cast<std::size_t>(nbr)];
          if (d < best) {
            best = d;
            hops.assign(1, nbr);
          } else if (d == best && d != kInf) {
            hops.push_back(nbr);
          }
        }
      } else {
        if (dist[v] == kInf) continue;
        for (const auto& [nbr, link] : topo.neighbors(at)) {
          const int d_nbr =
              nbr == dst
                  ? 0
                  : (topo.is_host(nbr) ? kInf : dist[static_cast<std::size_t>(nbr)]);
          if (d_nbr != kInf && d_nbr == dist[v] - 1) hops.push_back(nbr);
        }
      }
      if (!hops.empty()) table.set_next_hops(at, dst, std::move(hops));
    }
  }
  return table;
}

/// The up*/down* tables of mech::cbd_free_routes, per destination host.
inline PerHostRoutes reference_cbd_free_routes(const Topology& topo) {
  constexpr int kInf = std::numeric_limits<int>::max();
  const std::size_t n = topo.node_count();
  PerHostRoutes table(n);
  // BFS visit order over switch-to-switch links, rooted at the smallest
  // switch index of each connected component: the "up" direction.
  std::vector<int> rank(n, kInf);
  int next = 0;
  for (const NodeIndex root : topo.switches()) {
    if (rank[static_cast<std::size_t>(root)] != kInf) continue;
    std::deque<NodeIndex> bfs{root};
    rank[static_cast<std::size_t>(root)] = next++;
    while (!bfs.empty()) {
      const NodeIndex v = bfs.front();
      bfs.pop_front();
      std::vector<NodeIndex> nbrs;
      for (const auto& [w, link] : topo.neighbors(v)) {
        if (!topo.is_host(w) && rank[static_cast<std::size_t>(w)] == kInf)
          nbrs.push_back(w);
      }
      std::sort(nbrs.begin(), nbrs.end());
      for (const NodeIndex w : nbrs) {
        if (rank[static_cast<std::size_t>(w)] != kInf) continue;
        rank[static_cast<std::size_t>(w)] = next++;
        bfs.push_back(w);
      }
    }
  }
  const std::vector<NodeIndex>& switches = topo.switches();
  const std::vector<NodeIndex>& hosts = topo.hosts();
  std::vector<NodeIndex> by_rank_desc = switches;
  std::sort(by_rank_desc.begin(), by_rank_desc.end(),
            [&rank](NodeIndex a, NodeIndex b) {
              return rank[static_cast<std::size_t>(a)] >
                     rank[static_cast<std::size_t>(b)];
            });
  std::vector<int> ddist(n);
  std::vector<int> legal(n);
  for (const NodeIndex dst : hosts) {
    std::fill(ddist.begin(), ddist.end(), kInf);
    std::fill(legal.begin(), legal.end(), kInf);
    for (const auto& [s, link] : topo.neighbors(dst)) {
      if (!topo.is_host(s)) ddist[static_cast<std::size_t>(s)] = 1;
    }
    for (const NodeIndex v : by_rank_desc) {
      const auto vi = static_cast<std::size_t>(v);
      for (const auto& [w, link] : topo.neighbors(v)) {
        const auto wi = static_cast<std::size_t>(w);
        if (topo.is_host(w) || rank[wi] <= rank[vi]) continue;
        if (ddist[wi] != kInf && ddist[wi] + 1 < ddist[vi])
          ddist[vi] = ddist[wi] + 1;
      }
    }
    for (auto it = by_rank_desc.rbegin(); it != by_rank_desc.rend(); ++it) {
      const auto vi = static_cast<std::size_t>(*it);
      legal[vi] = ddist[vi];
      for (const auto& [w, link] : topo.neighbors(*it)) {
        const auto wi = static_cast<std::size_t>(w);
        if (topo.is_host(w) || rank[wi] >= rank[vi]) continue;
        if (legal[wi] != kInf && legal[wi] + 1 < legal[vi])
          legal[vi] = legal[wi] + 1;
      }
    }
    for (const NodeIndex v : switches) {
      const auto vi = static_cast<std::size_t>(v);
      std::vector<NodeIndex> hops;
      if (ddist[vi] == 1) {
        hops.push_back(dst);
      } else if (ddist[vi] != kInf) {
        for (const auto& [w, link] : topo.neighbors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (topo.is_host(w) || rank[wi] <= rank[vi]) continue;
          if (ddist[wi] != kInf && ddist[wi] + 1 == ddist[vi]) hops.push_back(w);
        }
      } else if (legal[vi] != kInf) {
        for (const auto& [w, link] : topo.neighbors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (topo.is_host(w) || rank[wi] >= rank[vi]) continue;
          if (legal[wi] != kInf && legal[wi] + 1 == legal[vi]) hops.push_back(w);
        }
      }
      std::sort(hops.begin(), hops.end());
      table.set_next_hops(v, dst, std::move(hops));
    }
    for (const NodeIndex src : hosts) {
      if (src == dst) continue;
      std::vector<NodeIndex> hops;
      for (const auto& [s, link] : topo.neighbors(src)) {
        if (topo.is_host(s)) continue;
        if (s == dst) continue;
        if (legal[static_cast<std::size_t>(s)] != kInf ||
            table.routable(s, dst))
          hops.push_back(s);
      }
      std::sort(hops.begin(), hops.end());
      table.set_next_hops(src, dst, std::move(hops));
    }
  }
  return table;
}

/// One step of the per-host closure: insert `a`'s vertex; when `edge` is
/// set, also the dependency a -> b (BufferDependencyGraph::add_link and
/// add_dependency).
struct ClosureOp {
  DirectedLink a;
  DirectedLink b;
  bool edge = false;
};

/// The closure ops for one destination host, read through any table with
/// next_hops(at, dst).
template <typename Table>
std::vector<ClosureOp> reference_closure_ops(const Topology& topo,
                                             const Table& routing,
                                             NodeIndex dst) {
  std::vector<ClosureOp> ops;
  std::vector<char> reachable(topo.node_count());
  std::vector<NodeIndex> frontier;
  for (NodeIndex s : topo.hosts()) {
    if (s == dst) continue;
    for (NodeIndex n : routing.next_hops(s, dst)) {
      if (!topo.is_host(n) && !reachable[static_cast<std::size_t>(n)]) {
        reachable[static_cast<std::size_t>(n)] = 1;
        frontier.push_back(n);
      }
    }
  }
  while (!frontier.empty()) {
    const NodeIndex v = frontier.back();
    frontier.pop_back();
    for (NodeIndex n : routing.next_hops(v, dst)) {
      if (!topo.is_host(n) && !reachable[static_cast<std::size_t>(n)]) {
        reachable[static_cast<std::size_t>(n)] = 1;
        frontier.push_back(n);
      }
    }
  }
  for (NodeIndex s : topo.switches()) {
    if (!reachable[static_cast<std::size_t>(s)]) continue;
    for (NodeIndex n : routing.next_hops(s, dst)) {
      if (topo.is_host(n)) continue;
      ops.push_back({{s, n}, {}, false});
      for (NodeIndex m : routing.next_hops(n, dst)) {
        if (topo.is_host(m)) continue;
        ops.push_back({{s, n}, {n, m}, true});
      }
    }
  }
  return ops;
}

}  // namespace gfc::topo::testref
