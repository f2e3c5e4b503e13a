#include "mech/cbd_routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

#include "topo/cbd.hpp"

namespace gfc::mech {
namespace {

using topo::NodeIndex;

constexpr int kInf = std::numeric_limits<int>::max();

/// BFS visit order over switch-to-switch links, rooted at the smallest
/// switch index of each connected component. rank[v] < rank[w] means v is
/// closer to (or is) its component's root: the "up" direction.
std::vector<int> switch_ranks(const topo::Topology& topo) {
  std::vector<int> rank(topo.node_count(), kInf);
  int next = 0;
  for (const NodeIndex root : topo.switches()) {
    if (rank[static_cast<std::size_t>(root)] != kInf) continue;
    std::deque<NodeIndex> bfs{root};
    rank[static_cast<std::size_t>(root)] = next++;
    while (!bfs.empty()) {
      const NodeIndex v = bfs.front();
      bfs.pop_front();
      // neighbors() is insertion-ordered; sort by index so the rank
      // assignment is a pure function of the topology.
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
  return rank;
}

}  // namespace

topo::RoutingTable cbd_free_routes(const topo::Topology& topo,
                                   RoutingStats* stats) {
  const std::size_t n = topo.node_count();
  const std::vector<int> rank = switch_ranks(topo);
  const std::vector<NodeIndex>& switches = topo.switches();
  const std::vector<NodeIndex>& hosts = topo.hosts();
  // Every distance below starts from the switches a destination hangs off,
  // so hosts behind the same switches share one column.
  const topo::HostClasses classes = topo::attachment_classes(topo);
  topo::RoutingTable::Builder builder(n, classes.size());

  // Switches in descending rank (leaves first): the processing order that
  // makes the all-down distance computable in one pass, since every down
  // hop goes to a strictly larger rank.
  std::vector<NodeIndex> by_rank_desc = switches;
  std::sort(by_rank_desc.begin(), by_rank_desc.end(),
            [&rank](NodeIndex a, NodeIndex b) {
              return rank[static_cast<std::size_t>(a)] >
                     rank[static_cast<std::size_t>(b)];
            });

  std::vector<int> ddist(n);   // hops to dst using down hops only
  std::vector<int> legal(n);   // hops to dst over any up* down* path
  std::vector<NodeIndex> hops;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const NodeIndex dst = classes[c].front();
    builder.begin_class(classes[c]);
    std::fill(ddist.begin(), ddist.end(), kInf);
    std::fill(legal.begin(), legal.end(), kInf);
    for (const auto& [s, link] : topo.neighbors(dst)) {
      if (!topo.is_host(s)) ddist[static_cast<std::size_t>(s)] = 1;
    }
    // All-down distance, leaves toward root.
    for (const NodeIndex v : by_rank_desc) {
      const auto vi = static_cast<std::size_t>(v);
      for (const auto& [w, link] : topo.neighbors(v)) {
        const auto wi = static_cast<std::size_t>(w);
        if (topo.is_host(w) || rank[wi] <= rank[vi]) continue;  // not down
        if (ddist[wi] != kInf && ddist[wi] + 1 < ddist[vi])
          ddist[vi] = ddist[wi] + 1;
      }
    }
    // Legal distance, root toward leaves: either descend from here, or
    // take one up hop and recurse (up hops strictly decrease rank, so
    // ascending-rank order sees every up-neighbor first).
    for (auto it = by_rank_desc.rbegin(); it != by_rank_desc.rend(); ++it) {
      const auto vi = static_cast<std::size_t>(*it);
      legal[vi] = ddist[vi];
      for (const auto& [w, link] : topo.neighbors(*it)) {
        const auto wi = static_cast<std::size_t>(w);
        if (topo.is_host(w) || rank[wi] >= rank[vi]) continue;  // not up
        if (legal[wi] != kInf && legal[wi] + 1 < legal[vi])
          legal[vi] = legal[wi] + 1;
      }
    }
    for (std::size_t vi = 0; vi < n; ++vi) {
      const NodeIndex v = static_cast<NodeIndex>(vi);
      hops.clear();
      if (topo.is_host(v)) {
        // Source hosts enter at their edge switch if it can reach dst (a
        // switch has a route exactly when its legal distance is finite).
        for (const auto& [s, link] : topo.neighbors(v)) {
          if (!topo.is_host(s) && legal[static_cast<std::size_t>(s)] != kInf)
            hops.push_back(s);
        }
      } else if (ddist[vi] == 1) {
        // Next hops, phase-free: descend as soon as possible. A switch
        // with a finite down distance *only* offers down hops — even when
        // an up detour would be shorter — so any packet position
        // determines its phase and every realized path is up* down*.
        hops.push_back(topo::RoutingTable::kDeliver);
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
      if (!hops.empty()) builder.set_row(v, hops);
    }
  }
  topo::RoutingTable table = std::move(builder).finish();

  if (stats != nullptr) {
    *stats = RoutingStats{};
    stats->cbd_free = !topo::cbd_prone(topo, table);

    const topo::RoutingTable shortest = topo::compute_shortest_paths(topo);
    double sum_stretch = 0.0;
    double max_stretch = 1.0;
    std::map<topo::DirectedLink, std::uint64_t> load;
    for (const NodeIndex src : hosts) {
      for (const NodeIndex dst : hosts) {
        if (src == dst) continue;
        const std::vector<NodeIndex> path = table.trace(src, dst, /*salt=*/0);
        if (path.size() < 2) {
          ++stats->unroutable_pairs;
          continue;
        }
        ++stats->pairs;
        for (const topo::DirectedLink& hop : topo::switch_hops(topo, path))
          ++load[hop];
        const std::vector<NodeIndex> ideal = shortest.trace(src, dst, 0);
        if (ideal.size() >= 2) {
          const double stretch = static_cast<double>(path.size() - 1) /
                                 static_cast<double>(ideal.size() - 1);
          sum_stretch += stretch;
          max_stretch = std::max(max_stretch, stretch);
        } else {
          sum_stretch += 1.0;
        }
      }
    }
    if (stats->pairs > 0) {
      stats->avg_stretch = sum_stretch / static_cast<double>(stats->pairs);
      stats->max_stretch = max_stretch;
    }
    if (!load.empty()) {
      std::uint64_t max_load = 0, total = 0;
      for (const auto& [l, c] : load) {
        max_load = std::max(max_load, c);
        total += c;
      }
      stats->load_imbalance = static_cast<double>(max_load) * load.size() /
                              static_cast<double>(total);
    }
  }
  return table;
}

}  // namespace gfc::mech
