#include "topo/partition.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace gfc::topo {

std::vector<int> partition(const Topology& topo, int n_shards,
                           std::uint64_t seed) {
  const std::size_t n = topo.node_count();
  std::vector<int> shard(n, 0);
  if (n_shards <= 1 || n == 0) return shard;

  const std::vector<NodeIndex>& switches = topo.switches();
  if (switches.empty()) return shard;
  const int k = std::min<int>(n_shards, static_cast<int>(switches.size()));

  // Pod groups first (std::map: iteration order is the pod label order,
  // not hash order). Unlabeled switches keep topology-index order, and so
  // do singleton labels: a pod shared by no other switch carries no
  // grouping information, and LPT-packing singletons degenerates to a
  // round-robin — the worst possible cut on a ring. The contiguous-block
  // fallback handles both.
  std::map<int, int> pod_count;
  for (NodeIndex s : switches) {
    const int pod = topo.node(s).pod;
    if (pod >= 0) ++pod_count[pod];
  }
  std::map<int, std::vector<NodeIndex>> pods;
  std::vector<NodeIndex> loose;
  for (NodeIndex s : switches) {
    const int pod = topo.node(s).pod;
    if (pod >= 0 && pod_count[pod] > 1)
      pods[pod].push_back(s);
    else
      loose.push_back(s);
  }

  std::vector<std::size_t> load(static_cast<std::size_t>(k), 0);
  const auto lightest = [&load, k]() {
    int best = 0;
    for (int i = 1; i < k; ++i)
      if (load[static_cast<std::size_t>(i)] <
          load[static_cast<std::size_t>(best)])
        best = i;
    return best;
  };

  // LPT-pack pod groups: largest first, ties by smallest member index so
  // the order never depends on map internals.
  std::vector<const std::vector<NodeIndex>*> groups;
  groups.reserve(pods.size());
  for (const auto& [pod, members] : pods) groups.push_back(&members);
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<NodeIndex>* a, const std::vector<NodeIndex>* b) {
              if (a->size() != b->size()) return a->size() > b->size();
              return a->front() < b->front();
            });
  for (const auto* g : groups) {
    const int dst = lightest();
    for (NodeIndex s : *g) shard[static_cast<std::size_t>(s)] = dst;
    load[static_cast<std::size_t>(dst)] += g->size();
  }

  // Unlabeled switches: contiguous index blocks (minimal cut on rings and
  // lines), rotated by the seed as the deterministic fallback when the
  // builder attached no structure at all.
  if (!loose.empty()) {
    const std::size_t m = loose.size();
    const std::size_t rot = static_cast<std::size_t>(seed % m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t pos = (i + m - rot) % m;
      const int dst = pods.empty()
                          ? static_cast<int>(pos * static_cast<std::size_t>(k) / m)
                          : lightest();
      shard[static_cast<std::size_t>(loose[i])] = dst;
      load[static_cast<std::size_t>(dst)] += 1;
    }
  }

  // Hosts ride with their rack; a disconnected host stays on shard 0.
  for (NodeIndex h : topo.hosts()) {
    const NodeIndex rack = topo.rack_of(h);
    if (rack >= 0)
      shard[static_cast<std::size_t>(h)] = shard[static_cast<std::size_t>(rack)];
  }
  return shard;
}

std::size_t partition_cut(const Topology& topo,
                          const std::vector<int>& shard) {
  std::size_t cut = 0;
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const TopoLink& e = topo.link(static_cast<LinkIndex>(l));
    if (shard[static_cast<std::size_t>(e.a)] !=
        shard[static_cast<std::size_t>(e.b)])
      ++cut;
  }
  return cut;
}

}  // namespace gfc::topo
