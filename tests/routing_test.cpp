// Differential tests for the destination-class routing tables: every
// next_hops(at, dst) equals the per-host reference (tests/
// reference_routing.hpp) element for element, the class-keyed closure
// equals a per-host replay, and analysis of a class table is byte-identical
// to analysis of the same routes split into one class per host.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "mech/cbd_routing.hpp"
#include "reference_routing.hpp"
#include "runner/config.hpp"
#include "sim/random.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::topo {
namespace {

/// Mismatching (at, dst) entries; the first few are reported.
template <typename Reference>
int count_mismatches(const Topology& t, const RoutingTable& table,
                     const Reference& ref, const std::string& label) {
  int bad = 0;
  for (std::size_t v = 0; v < t.node_count(); ++v) {
    const NodeIndex at = static_cast<NodeIndex>(v);
    for (const NodeIndex dst : t.hosts()) {
      const std::span<const NodeIndex> got = table.next_hops(at, dst);
      const std::vector<NodeIndex>& want = ref.next_hops(at, dst);
      if (std::equal(got.begin(), got.end(), want.begin(), want.end())) continue;
      if (++bad <= 3)
        ADD_FAILURE() << label << ": next_hops(" << at << ", " << dst
                      << ") has " << got.size() << " hops, reference "
                      << want.size();
    }
  }
  return bad;
}

/// The class-keyed closure and a per-host replay of the reference ops
/// build the same vertices, in the same order, with the same edges.
bool closure_matches_per_host(const Topology& t, const RoutingTable& table) {
  BufferDependencyGraph by_class(t);
  by_class.add_routing_closure(table);
  BufferDependencyGraph by_host(t);
  for (const NodeIndex dst : t.hosts())
    by_host.apply_ops(testref::reference_closure_ops(t, table, dst));
  return by_class.links() == by_host.links() &&
         by_class.adjacency() == by_host.adjacency();
}

/// The same routes with every host a class of its own: what the tables
/// held before hosts shared columns.
RoutingTable split_per_host(const Topology& t, const RoutingTable& table) {
  RoutingTable::Builder b(t.node_count());
  for (const NodeIndex dst : t.hosts()) {
    b.begin_class({&dst, 1});
    for (std::size_t v = 0; v < t.node_count(); ++v) {
      const NodeIndex at = static_cast<NodeIndex>(v);
      if (!table.next_hops(at, dst).empty())
        b.set_row(at, table.next_hops(at, dst));
    }
  }
  return std::move(b).finish();
}

std::string report_json(const Topology& t, const RoutingTable& table) {
  analyze::Input in;
  in.topo = &t;
  in.routing = &table;
  in.cfg.switch_buffer = 300'000;
  in.cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, 300'000,
                                      in.cfg.link.rate, in.cfg.tau());
  in.max_cycles = 64;
  return analyze::analyze(in).json();
}

void table1_topology(Topology* t, int k, std::uint64_t seed) {
  build_fattree(*t, k);
  sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(k));
  random_failures(*t, rng, 0.05);
}

/// A k=4 fat-tree whose hosts also hang off the pod's other edge switch;
/// every second host lists the other edge first, so the members of one
/// class order their two-switch rows differently.
FatTreeInfo build_dual_homed_fattree(Topology* t, std::uint64_t seed) {
  const FatTreeInfo ft = build_fattree(*t, 4);
  for (std::size_t h = 0; h < ft.hosts.size(); ++h) {
    const NodeIndex host = ft.hosts[h];
    const NodeIndex own = t->rack_of(host);
    const NodeIndex other = ft.edges[(h / 2) ^ 1];
    if (h % 2 == 0) {
      t->add_link(host, other);
      continue;
    }
    const LinkIndex own_link = t->neighbors(host).front().second;
    t->fail_link(own_link);
    t->add_link(host, other);
    t->add_link(host, own);
  }
  sim::Rng rng(seed);
  for (const LinkIndex l : t->switch_links())
    if (rng.chance(0.1)) t->fail_link(l);
  return ft;
}

TEST(ClassRouting, MatchesPerHostReferenceOnTable1Seeds) {
  for (const auto& [k, seeds] : {std::pair{4, 160}, std::pair{8, 40}}) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
         ++seed) {
      Topology t;
      table1_topology(&t, k, seed);
      const RoutingTable table = compute_shortest_paths(t);
      const std::string label =
          "k=" + std::to_string(k) + " seed=" + std::to_string(seed);
      ASSERT_EQ(count_mismatches(t, table, testref::reference_shortest_paths(t),
                                 label),
                0);
      // One class per edge switch: hosts only hang off edges.
      ASSERT_EQ(table.class_count(), static_cast<std::size_t>(k * k / 2)) << label;
      ASSERT_TRUE(closure_matches_per_host(t, table)) << label;
    }
  }
}

TEST(ClassRouting, MatchesPerHostReferenceOnRingAndDumbbell) {
  Topology ring;
  build_ring(ring, 5);
  const RoutingTable ring_table = compute_shortest_paths(ring);
  EXPECT_EQ(count_mismatches(ring, ring_table,
                             testref::reference_shortest_paths(ring), "ring"),
            0);
  EXPECT_EQ(ring_table.class_count(), 5u);

  Topology dumbbell;
  const DumbbellInfo info = build_dumbbell(dumbbell, 8);
  const RoutingTable db_table = compute_shortest_paths(dumbbell);
  EXPECT_EQ(count_mismatches(dumbbell, db_table,
                             testref::reference_shortest_paths(dumbbell),
                             "dumbbell"),
            0);
  // Every host hangs off the one switch: one column, delivered locally.
  ASSERT_EQ(db_table.class_count(), 1u);
  EXPECT_EQ(db_table.members(0).size(), 9u);
  for (const NodeIndex s : info.senders) {
    ASSERT_EQ(db_table.next_hops(info.sw, s).size(), 1u);
    EXPECT_EQ(db_table.next_hops(info.sw, s)[0], s);
    EXPECT_TRUE(db_table.next_hops(s, s).empty());
  }
  EXPECT_TRUE(closure_matches_per_host(dumbbell, db_table));
}

TEST(ClassRouting, HostWithItsLinkDownIsAClassOfItsOwn) {
  Topology t;
  const FatTreeInfo ft = build_fattree(t, 4);
  const NodeIndex lonely = ft.hosts[5];
  t.fail_link(t.neighbors(lonely).front().second);
  const RoutingTable table = compute_shortest_paths(t);
  EXPECT_EQ(count_mismatches(t, table, testref::reference_shortest_paths(t),
                             "host link down"),
            0);
  ASSERT_EQ(table.class_count(), 9u);
  const std::span<const NodeIndex> alone =
      table.members(static_cast<std::size_t>(table.class_of(lonely)));
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(alone[0], lonely);
  // Its rack mate now shares a column with nobody else either.
  EXPECT_EQ(table.members(static_cast<std::size_t>(table.class_of(ft.hosts[4])))
                .size(),
            1u);
  EXPECT_FALSE(table.routable(ft.hosts[0], lonely));
  EXPECT_FALSE(table.routable(lonely, ft.hosts[0]));
  EXPECT_TRUE(closure_matches_per_host(t, table));
}

TEST(ClassRouting, DualHomedAndParallelLinksMatchReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Topology t;
    const FatTreeInfo ft = build_dual_homed_fattree(&t, seed);
    // A second link from one host to its switch: that host is alone.
    t.add_link(ft.hosts[15], t.rack_of(ft.hosts[15]));
    const std::string label = "dual-homed seed=" + std::to_string(seed);
    const RoutingTable table = compute_shortest_paths(t);
    ASSERT_EQ(count_mismatches(t, table, testref::reference_shortest_paths(t),
                               label),
              0);
    // Pods 0-2 are one class each; pod 3 splits off the doubled host.
    EXPECT_EQ(table.class_count(), 5u) << label;
    EXPECT_EQ(table.members(0).size(), 4u) << label;
    ASSERT_TRUE(closure_matches_per_host(t, table)) << label;
    const RoutingTable updown = mech::cbd_free_routes(t);
    ASSERT_EQ(count_mismatches(t, updown, testref::reference_cbd_free_routes(t),
                               label + " up*/down*"),
              0);
    ASSERT_TRUE(closure_matches_per_host(t, updown)) << label;
  }
}

TEST(ClassRouting, CbdFreeRoutesMatchPerHostReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Topology t;
    table1_topology(&t, 4, seed);
    const RoutingTable table = mech::cbd_free_routes(t);
    const std::string label = "up*/down* seed=" + std::to_string(seed);
    ASSERT_EQ(count_mismatches(t, table, testref::reference_cbd_free_routes(t),
                               label),
              0);
    ASSERT_TRUE(closure_matches_per_host(t, table)) << label;
  }
}

TEST(ClassRouting, ReportEqualsOneClassPerHost) {
  // Loops, valleys and unroutable pairs are found once per class but
  // reported per host; splitting the classes must not change a byte.
  int valleys = 0;
  const auto check = [&valleys](const Topology& t, const RoutingTable& table,
                                const std::string& label) {
    const std::string json = report_json(t, table);
    EXPECT_EQ(json, report_json(t, split_per_host(t, table))) << label;
    for (std::size_t at = json.find("\"valley\""); at != std::string::npos;
         at = json.find("\"valley\"", at + 1))
      ++valleys;
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Topology t;
    table1_topology(&t, 4, seed);
    check(t, compute_shortest_paths(t), "k=4 seed=" + std::to_string(seed));
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Topology t;
    build_dual_homed_fattree(&t, seed);
    check(t, compute_shortest_paths(t),
          "dual-homed seed=" + std::to_string(seed));
    check(t, mech::cbd_free_routes(t),
          "dual-homed up*/down* seed=" + std::to_string(seed));
  }
  EXPECT_GT(valleys, 0);
}

TEST(ClassRouting, HandBuiltClassesResolveDelivery) {
  // Two hosts behind S0 share a column written with the delivery marker.
  Topology t;
  const NodeIndex h0 = t.add_host("H0");
  const NodeIndex h1 = t.add_host("H1");
  const NodeIndex h2 = t.add_host("H2");
  const NodeIndex s0 = t.add_switch("S0");
  const NodeIndex s1 = t.add_switch("S1");
  t.add_link(h0, s0);
  t.add_link(h1, s0);
  t.add_link(h2, s1);
  t.add_link(s0, s1);
  RoutingTable::Builder b(t.node_count());
  const NodeIndex pair[] = {h0, h1};
  b.begin_class(pair);
  b.set_row(h0, {s0});
  b.set_row(h1, {s0});
  b.set_row(h2, {s1});
  b.set_row(s0, {RoutingTable::kDeliver});
  b.set_row(s1, {s0});
  b.begin_class({&h2, 1});
  b.set_row(h0, {s0});
  b.set_row(h1, {s0});
  b.set_row(h2, {s1});  // a one-member class drops its own row
  b.set_row(s0, {s1});
  b.set_row(s1, {RoutingTable::kDeliver});
  const RoutingTable table = std::move(b).finish();
  ASSERT_EQ(table.class_count(), 2u);
  EXPECT_EQ(table.class_of(h1), 0);
  EXPECT_EQ(table.class_of(s0), -1);
  EXPECT_EQ(table.next_hops(s0, h1)[0], h1);
  EXPECT_EQ(table.next_hops(s0, h0)[0], h0);
  EXPECT_EQ(table.next_hops(s1, h2)[0], h2);
  EXPECT_TRUE(table.next_hops(h0, h0).empty());
  EXPECT_EQ(table.next_hops(h1, h0)[0], s0);
  EXPECT_TRUE(table.row(1, h2).empty());
  EXPECT_EQ(table.trace(h2, h1, 0),
            (std::vector<NodeIndex>{h2, s1, s0, h1}));
  EXPECT_EQ(table.column(1).offsets.size(), t.node_count() + 1);
}

}  // namespace
}  // namespace gfc::topo
