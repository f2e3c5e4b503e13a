// Topology builders for every scenario in the paper's evaluation.
#pragma once

#include <vector>

#include "topo/topology.hpp"

namespace gfc::topo {

/// Figure 1 / Sec 6.1: N switches in a directed ring, one host per switch.
/// Deadlock requires the clockwise routing of ring_clockwise_routes().
struct RingInfo {
  std::vector<NodeIndex> hosts;     // H_i attached to S_i
  std::vector<NodeIndex> switches;  // S_0 .. S_{n-1}
};
RingInfo build_ring(Topology& topo, int n_switches = 3);

/// Three-layer fat-tree [1] with parameter k (even): k pods, k/2 edge and
/// k/2 agg switches per pod, (k/2)^2 cores, k^3/4 hosts. Host ids are
/// contiguous and pod-major so the paper's H0..H15 labels line up for k=4.
struct FatTreeInfo {
  int k = 0;
  std::vector<NodeIndex> hosts;  // pod-major
  std::vector<NodeIndex> edges;  // pod-major: edge e of pod p = edges[p*k/2+e]
  std::vector<NodeIndex> aggs;   // pod-major, same layout
  std::vector<NodeIndex> cores;  // core (i,j) = cores[i*k/2+j]
  NodeIndex host(int pod, int idx) const;  // idx in [0, k^2/4)
  NodeIndex edge(int pod, int e) const { return edges[static_cast<std::size_t>(pod * (k / 2) + e)]; }
  NodeIndex agg(int pod, int a) const { return aggs[static_cast<std::size_t>(pod * (k / 2) + a)]; }
};
FatTreeInfo build_fattree(Topology& topo, int k);

/// Sec 7 / Figures 5 and 20: n senders and one receiver on a single
/// switch (Figure 5 is the 2-to-1 case).
struct DumbbellInfo {
  std::vector<NodeIndex> senders;
  NodeIndex receiver = -1;
  NodeIndex sw = -1;
};
DumbbellInfo build_dumbbell(Topology& topo, int n_senders);

}  // namespace gfc::topo
