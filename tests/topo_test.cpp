// Unit tests for topologies, routing, CBD analysis and scenario generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>
#include <set>
#include <vector>

#include "topo/first_cycle.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::topo {
namespace {

TEST(Topology, RingShape) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 6u);  // 3 host links + 3 ring links
  EXPECT_EQ(t.hosts().size(), 3u);
  EXPECT_EQ(t.switches().size(), 3u);
  EXPECT_EQ(t.switch_links().size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(t.rack_of(info.hosts[static_cast<std::size_t>(i)]),
              info.switches[static_cast<std::size_t>(i)]);
}

TEST(Topology, FatTreeK4Shape) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  EXPECT_EQ(ft.hosts.size(), 16u);
  EXPECT_EQ(ft.edges.size(), 8u);
  EXPECT_EQ(ft.aggs.size(), 8u);
  EXPECT_EQ(ft.cores.size(), 4u);
  // Links: host-edge 16, edge-agg 4*2*2=16, agg-core 4*2*2=16.
  EXPECT_EQ(t.link_count(), 48u);
  EXPECT_EQ(t.switch_links().size(), 32u);
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Topology, FatTreeK8Shape) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 8);
  EXPECT_EQ(ft.hosts.size(), 128u);
  EXPECT_EQ(ft.edges.size(), 32u);
  EXPECT_EQ(ft.aggs.size(), 32u);
  EXPECT_EQ(ft.cores.size(), 16u);
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Topology, FailRestoreLinks) {
  Topology t;
  build_ring(t, 3);
  const auto sw_links = t.switch_links();
  t.fail_link(sw_links[0]);
  EXPECT_FALSE(t.link(sw_links[0]).up);
  EXPECT_TRUE(t.hosts_connected());  // ring survives one failure
  t.fail_link(sw_links[1]);
  t.fail_link(sw_links[2]);
  EXPECT_FALSE(t.hosts_connected());
  t.restore_all();
  EXPECT_TRUE(t.hosts_connected());
}

TEST(Routing, ShortestPathsOnFatTree) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  // Same-pod different-rack: 2 switch hops (edge-agg-edge), path length 5.
  const auto same_pod = routing.trace(ft.hosts[0], ft.hosts[2], 7);
  EXPECT_EQ(same_pod.size(), 5u);
  // Cross-pod: 4 switch-to-switch hops via a core, path length 7.
  const auto cross_pod = routing.trace(ft.hosts[0], ft.hosts[8], 7);
  EXPECT_EQ(cross_pod.size(), 7u);
  EXPECT_EQ(cross_pod.front(), ft.hosts[0]);
  EXPECT_EQ(cross_pod.back(), ft.hosts[8]);
}

TEST(Routing, EcmpUsesMultiplePaths) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  std::set<std::vector<NodeIndex>> distinct;
  for (std::uint64_t salt = 0; salt < 32; ++salt)
    distinct.insert(routing.trace(ft.hosts[0], ft.hosts[8], salt));
  // k=4 has 4 core paths between pods.
  EXPECT_GE(distinct.size(), 3u);
}

TEST(Routing, TraceMatchesNextHops) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const RoutingTable routing = compute_shortest_paths(t);
  const auto path = routing.trace(ft.hosts[1], ft.hosts[15], 99);
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const auto& hops = routing.next_hops(path[i], ft.hosts[15]);
    EXPECT_NE(std::find(hops.begin(), hops.end(), path[i + 1]), hops.end());
  }
}

TEST(Routing, UnroutableAfterDisconnection) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  for (LinkIndex l : t.switch_links()) t.fail_link(l);
  const RoutingTable routing = compute_shortest_paths(t);
  EXPECT_TRUE(routing.trace(info.hosts[0], info.hosts[1], 0).empty());
  EXPECT_FALSE(routing.routable(info.hosts[0], info.hosts[1]));
  // Local rack still reachable.
  EXPECT_TRUE(routing.routable(info.hosts[0], info.hosts[0]) == false ||
              true);  // self-routing is unused; just must not crash
}

TEST(Routing, RingClockwiseIsCyclic) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  const RoutingTable routing = ring_clockwise_routes(t, info);
  const auto path = routing.trace(info.hosts[0], info.hosts[2], 0);
  // H0 -> S0 -> S1 -> S2 -> H2 (two inter-switch hops, never the short way).
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[1], info.switches[0]);
  EXPECT_EQ(path[2], info.switches[1]);
  EXPECT_EQ(path[3], info.switches[2]);
}

TEST(Cbd, RingRoutingIsCbdProne) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  EXPECT_TRUE(cbd_prone(t, ring_clockwise_routes(t, info)));
}

TEST(Cbd, HealthyFatTreeIsCbdFree) {
  // Up-down routing on an intact fat-tree can never create a CBD.
  Topology t;
  build_fattree(t, 4);
  EXPECT_FALSE(cbd_prone(t, compute_shortest_paths(t)));
}

TEST(Cbd, PathDependencies) {
  Topology t;
  const RingInfo info = build_ring(t, 3);
  BufferDependencyGraph g(t);
  // Two paths that chain around the ring close a cycle; one alone doesn't.
  const auto s = [&](int i) { return info.switches[static_cast<std::size_t>(i)]; };
  g.add_path({info.hosts[0], s(0), s(1), s(2), info.hosts[2]});
  EXPECT_FALSE(g.find_cycle().has_cbd);
  g.add_path({info.hosts[1], s(1), s(2), s(0), info.hosts[0]});
  EXPECT_FALSE(g.find_cycle().has_cbd);
  g.add_path({info.hosts[2], s(2), s(0), s(1), info.hosts[1]});
  const CbdResult r = g.find_cycle();
  EXPECT_TRUE(r.has_cbd);
  EXPECT_EQ(r.cycle.size(), 3u);
}

TEST(Cbd, WitnessCycleIsConsistent) {
  Topology t;
  const RingInfo info = build_ring(t, 4);
  BufferDependencyGraph g(t);
  const auto s = [&](int i) { return info.switches[static_cast<std::size_t>(i)]; };
  for (int i = 0; i < 4; ++i)
    g.add_path({info.hosts[static_cast<std::size_t>(i)], s(i), s((i + 1) % 4),
                s((i + 2) % 4), info.hosts[static_cast<std::size_t>((i + 2) % 4)]});
  const CbdResult r = g.find_cycle();
  ASSERT_TRUE(r.has_cbd);
  // Consecutive cycle entries must chain: (a,b) -> (b,c).
  for (std::size_t i = 0; i < r.cycle.size(); ++i)
    EXPECT_EQ(r.cycle[i].second, r.cycle[(i + 1) % r.cycle.size()].first);
}

// first_cycle on hand-built adjacency lists, every vertex a root in
// ascending order unless a test names the roots.
std::vector<int> first_cycle_of(const std::vector<std::vector<int>>& adj,
                                const std::vector<int>& roots) {
  return first_cycle(adj.size(), roots, [&adj](int v) -> const std::vector<int>& {
    return adj[static_cast<std::size_t>(v)];
  });
}
std::vector<int> first_cycle_of(const std::vector<std::vector<int>>& adj) {
  std::vector<int> roots(adj.size());
  for (std::size_t v = 0; v < roots.size(); ++v) roots[v] = static_cast<int>(v);
  return first_cycle_of(adj, roots);
}

TEST(FirstCycle, AcyclicGraphHasNone) {
  // A diamond with a tail: two paths to one vertex are no cycle.
  EXPECT_TRUE(first_cycle_of({{1, 2}, {3}, {3}, {4}, {}}).empty());
  EXPECT_TRUE(first_cycle_of({}).empty());
}

TEST(FirstCycle, SelfLoopIsOneVertex) {
  EXPECT_EQ(first_cycle_of({{1}, {2}, {2}}), (std::vector<int>{2}));
}

TEST(FirstCycle, EarlierRootsCycleWins) {
  // 0 -> 1 -> 0 and 2 -> 3 -> 2 are disjoint: the root order decides.
  const std::vector<std::vector<int>> adj{{1}, {0}, {3}, {2}};
  EXPECT_EQ(first_cycle_of(adj), (std::vector<int>{0, 1}));
  EXPECT_EQ(first_cycle_of(adj, {3, 0}), (std::vector<int>{3, 2}));
  // A root that reaches no cycle is passed over for the next one.
  EXPECT_EQ(first_cycle_of({{}, {2}, {1}}, {0, 2}), (std::vector<int>{2, 1}));
}

TEST(FirstCycle, SuccessorOrderPicksTheCycle) {
  // From root 0, 0 -> 1 -> 0 and 0 -> 2 -> 3 -> 0 both close on 0; the
  // first successor listed is followed first. The witness is the tree
  // path from the back edge's target to its source.
  EXPECT_EQ(first_cycle_of({{1, 2}, {0}, {3}, {0}}), (std::vector<int>{0, 1}));
  EXPECT_EQ(first_cycle_of({{2, 1}, {0}, {3}, {0}}),
            (std::vector<int>{0, 2, 3}));
  // The back edge may close on a vertex deeper than the root.
  EXPECT_EQ(first_cycle_of({{1}, {2}, {3}, {1}}), (std::vector<int>{1, 2, 3}));
}

TEST(FirstCycle, SinkNeverEntersAWitness) {
  // Vertex 1 lists successors, but the callback makes it a sink (the
  // routing-loop lint does this to hosts): 0 -> 1 -> 0 is then no cycle,
  // and the search goes on to 0 -> 2 -> 0.
  const std::vector<std::vector<int>> adj{{1, 2}, {0}, {0}};
  const std::vector<int> none;
  const auto succ = [&](int v) -> const std::vector<int>& {
    return v == 1 ? none : adj[static_cast<std::size_t>(v)];
  };
  EXPECT_EQ(first_cycle(adj.size(), std::views::iota(0, 3), succ),
            (std::vector<int>{0, 2}));
  EXPECT_EQ(first_cycle(adj.size(), std::views::iota(1, 2), succ), none);
}

TEST(ScenarioGen, RandomFailuresKeepHostsConnected) {
  Topology t;
  build_fattree(t, 4);
  sim::Rng rng(5);
  const auto failed = random_failures(t, rng, 0.2);
  EXPECT_TRUE(t.hosts_connected());
  for (LinkIndex l : failed) EXPECT_FALSE(t.link(l).up);
}

TEST(ScenarioGen, ZeroProbabilityFailsNothing) {
  Topology t;
  build_fattree(t, 4);
  sim::Rng rng(5);
  EXPECT_TRUE(random_failures(t, rng, 0.0).empty());
}

TEST(ScenarioGen, Fig11CaseHasQualifyingCbd) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const auto cases = find_fig11_cases(t, ft, 1);
  ASSERT_FALSE(cases.empty());
  const Fig11Case& c = cases.front();
  EXPECT_EQ(c.failed_links.size(), 3u);
  EXPECT_GE(c.cbd.cycle.size(), 4u);
  // Cycle lives above the edge layer.
  for (const auto& [a, b] : c.cbd.cycle) {
    EXPECT_GE(t.node(a).layer, 2);
    EXPECT_GE(t.node(b).layer, 2);
  }
  // The four paper flows are the endpoints.
  EXPECT_EQ(c.flows[0].first, ft.hosts[0]);
  EXPECT_EQ(c.flows[0].second, ft.hosts[8]);
  EXPECT_EQ(c.flows[3].first, ft.hosts[13]);
  EXPECT_EQ(c.flows[3].second, ft.hosts[5]);
}

TEST(ScenarioGen, CbdStressCoversCycle) {
  Topology t;
  build_fattree(t, 4);
  // Find a prone topology, then cover its cycle.
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    t.restore_all();
    sim::Rng rng(seed);
    random_failures(t, rng, 0.05);
    const RoutingTable routing = compute_shortest_paths(t);
    BufferDependencyGraph g(t);
    g.add_routing_closure(routing);
    const CbdResult cbd = g.find_cycle();
    if (!cbd.has_cbd) continue;
    const CbdStress stress = build_cbd_stress(t, routing, cbd.cycle, rng);
    if (!stress.covered) continue;
    // The realized stress paths must themselves form a CBD.
    BufferDependencyGraph realized(t);
    for (const auto& f : stress.flows)
      realized.add_path(routing.trace(f.src, f.dst, f.salt));
    EXPECT_TRUE(realized.find_cycle().has_cbd);
    return;
  }
  GTEST_SKIP() << "no coverable CBD-prone case in seed range";
}

}  // namespace
}  // namespace gfc::topo
