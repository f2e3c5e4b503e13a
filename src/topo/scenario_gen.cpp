#include "topo/scenario_gen.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

namespace gfc::topo {

std::vector<LinkIndex> random_failures(Topology& topo, sim::Rng& rng, double p,
                                       int max_tries) {
  const std::vector<LinkIndex> candidates = topo.switch_links();
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    std::vector<LinkIndex> failed;
    for (LinkIndex l : candidates)
      if (rng.chance(p)) failed.push_back(l);
    for (LinkIndex l : failed) topo.fail_link(l);
    if (topo.hosts_connected()) return failed;
    topo.restore_all();
  }
  return {};  // keep the pristine topology if no connected sample was found
}

namespace {

/// CBD check over the four concrete paths; accepts only cycles that live
/// entirely above the edge layer and are at least 4 links long.
std::optional<CbdResult> qualifying_cbd(
    const Topology& topo, const std::vector<std::vector<NodeIndex>>& paths,
    int min_flows_per_cycle_link) {
  BufferDependencyGraph graph(topo);
  for (const auto& p : paths) graph.add_path(p);
  CbdResult cbd = graph.find_cycle();
  if (!cbd.has_cbd || cbd.cycle.size() < 4) return std::nullopt;
  for (const auto& [a, b] : cbd.cycle) {
    if (topo.node(a).layer < 2 || topo.node(b).layer < 2) return std::nullopt;
    int users = 0;
    for (const auto& p : paths) {
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        if (p[i] == a && p[i + 1] == b) {
          ++users;
          break;
        }
    }
    if (users < min_flows_per_cycle_link) return std::nullopt;
  }
  return cbd;
}

}  // namespace

std::vector<Fig11Case> find_fig11_cases(Topology& topo, const FatTreeInfo& ft,
                                        std::size_t max_cases,
                                        int min_flows_per_cycle_link) {
  std::vector<Fig11Case> found;
  const std::vector<std::pair<NodeIndex, NodeIndex>> flows = {
      {ft.hosts[0], ft.hosts[8]},
      {ft.hosts[4], ft.hosts[12]},
      {ft.hosts[9], ft.hosts[1]},
      {ft.hosts[13], ft.hosts[5]},
  };
  const std::vector<LinkIndex> sw_links = topo.switch_links();
  const std::size_t m = sw_links.size();
  for (std::size_t i = 0; i < m && found.size() < max_cases; ++i) {
    for (std::size_t j = i + 1; j < m && found.size() < max_cases; ++j) {
      for (std::size_t k = j + 1; k < m && found.size() < max_cases; ++k) {
        topo.restore_all();
        topo.fail_link(sw_links[i]);
        topo.fail_link(sw_links[j]);
        topo.fail_link(sw_links[k]);
        if (!topo.hosts_connected()) continue;
        const RoutingTable routing = compute_shortest_paths(topo);
        bool routable = true;
        for (const auto& [s, d] : flows)
          routable = routable && routing.routable(s, d);
        if (!routable) continue;
        // Cheap pre-filter: the all-options closure must be cyclic at all.
        if (!cbd_prone(topo, routing)) continue;
        // Pin concrete paths: sweep a small per-flow salt space.
        for (std::uint64_t s0 = 0; s0 < 4; ++s0)
          for (std::uint64_t s1 = 0; s1 < 4; ++s1)
            for (std::uint64_t s2 = 0; s2 < 4; ++s2)
              for (std::uint64_t s3 = 0; s3 < 4; ++s3) {
                const std::vector<std::uint64_t> salts{s0, s1, s2, s3};
                std::vector<std::vector<NodeIndex>> paths;
                for (std::size_t f = 0; f < flows.size(); ++f) {
                  paths.push_back(routing.trace(flows[f].first,
                                                flows[f].second, salts[f]));
                }
                if (std::any_of(paths.begin(), paths.end(),
                                [](const auto& p) { return p.empty(); }))
                  continue;
                auto cbd =
                    qualifying_cbd(topo, paths, min_flows_per_cycle_link);
                if (!cbd) continue;
                found.push_back(Fig11Case{
                    {sw_links[i], sw_links[j], sw_links[k]},
                    flows,
                    salts,
                    std::move(paths),
                    std::move(*cbd)});
                goto next_combo;
              }
      next_combo:;
      }
    }
  }
  topo.restore_all();
  return found;
}

CbdStress build_cbd_stress(const Topology& topo, const RoutingTable& routing,
                           const std::vector<DirectedLink>& cycle,
                           sim::Rng& rng, int per_link,
                           int max_tries_per_link) {
  CbdStress out;
  const std::vector<NodeIndex>& hosts = topo.hosts();
  std::vector<int> coverage(cycle.size(), 0);
  // One sampled flow realizes the dependency (a,b) -> (b,c2) iff its
  // concrete path contains the node triple a,b,c2; full triple coverage
  // reconstructs the cyclic dependency with every cycle link carrying
  // >= per_link line-rate flows (oversubscribed, so the buffers fill).
  auto triple_hits = [&](const std::vector<NodeIndex>& path,
                         std::vector<int>* hits) {
    bool any = false;
    for (std::size_t c = 0; c < cycle.size(); ++c) {
      const NodeIndex a = cycle[c].first;
      const NodeIndex b = cycle[c].second;
      const NodeIndex c2 = cycle[(c + 1) % cycle.size()].second;
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        if (path[i] == a && path[i + 1] == b && path[i + 2] == c2) {
          if (hits != nullptr) ++(*hits)[c];
          any = true;
        }
      }
    }
    return any;
  };
  auto keep_flow = [&](NodeIndex src, NodeIndex dst, std::uint64_t salt,
                       const std::vector<NodeIndex>& path) {
    std::vector<int> hits(cycle.size(), 0);
    triple_hits(path, &hits);
    bool useful = false;
    for (std::size_t i = 0; i < cycle.size(); ++i)
      if (hits[i] > 0 && coverage[i] < per_link) useful = true;
    if (!useful) return;
    for (std::size_t i = 0; i < cycle.size(); ++i) coverage[i] += hits[i];
    out.flows.push_back(CbdStress::FlowSpec{src, dst, salt});
  };
  for (std::size_t c = 0; c < cycle.size(); ++c) {
    if (coverage[c] >= per_link) continue;
    const NodeIndex a = cycle[c].first;
    const NodeIndex b = cycle[c].second;
    const NodeIndex c2 = cycle[(c + 1) % cycle.size()].second;
    // Witness destinations: the ECMP DAG toward d must contain both hops.
    std::vector<NodeIndex> dsts;
    for (NodeIndex d : hosts) {
      const auto& h1 = routing.next_hops(a, d);
      const auto& h2 = routing.next_hops(b, d);
      const bool w1 = std::find(h1.begin(), h1.end(), b) != h1.end();
      const bool w2 = std::find(h2.begin(), h2.end(), c2) != h2.end();
      if (w1 && w2) dsts.push_back(d);
    }
    rng.shuffle(dsts);
    std::vector<NodeIndex> srcs = hosts;
    rng.shuffle(srcs);
    int tries = 0;
    for (NodeIndex d : dsts) {
      for (NodeIndex src : srcs) {
        if (src == d || topo.rack_of(src) == topo.rack_of(d)) continue;
        bool found = false;
        for (std::uint64_t salt = 0; salt < 64 && tries < max_tries_per_link;
             ++salt) {
          ++tries;
          const auto path = routing.trace(src, d, salt);
          if (path.empty()) continue;
          std::vector<int> hits(cycle.size(), 0);
          triple_hits(path, &hits);
          if (hits[c] > 0) {
            keep_flow(src, d, salt, path);
            found = true;
            break;
          }
        }
        if (found && coverage[c] >= per_link) break;
        if (tries >= max_tries_per_link) break;
      }
      if (coverage[c] >= per_link || tries >= max_tries_per_link) break;
    }
  }
  out.covered = true;
  for (int c : coverage)
    if (c < per_link) out.covered = false;
#ifdef GFC_DEBUG_STRESS
  for (std::size_t c = 0; c < coverage.size(); ++c)
    std::fprintf(stderr, "triple %zu coverage %d\n", c, coverage[c]);
#endif
  return out;
}

}  // namespace gfc::topo
