// Tests for the fault-aware analysis layer (src/analyze/incremental,
// sweep, repair + the runner wiring): the load-bearing randomized
// flap-sequence differential harness (incremental reports must be
// byte-identical to from-scratch analysis after any down/up sequence),
// which path yields a capped report, the elementary_cycles properties
// that path rests on, witness-cycle membership properties, the k-failure
// sweep's culprit semantics, repair verification, and the Fabric
// re-verdict plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/cycles.hpp"
#include "analyze/incremental.hpp"
#include "analyze/repair.hpp"
#include "analyze/scenario.hpp"
#include "analyze/sweep.hpp"
#include "runner/scenarios.hpp"
#include "sim/random.hpp"
#include "stats/deadlock.hpp"
#include "topo/builders.hpp"
#include "topo/cbd.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"

namespace gfc::analyze {
namespace {

runner::ScenarioConfig cli_config(runner::FcKind kind, std::int64_t buffer) {
  runner::ScenarioConfig cfg;
  cfg.switch_buffer = buffer;
  cfg.fc = runner::FcSetup::derive(kind, buffer, cfg.link.rate, cfg.tau(),
                                   cfg.link.mtu);
  return cfg;
}

Input input_for(const topo::Topology& t, const runner::ScenarioConfig& cfg,
                const std::string& scenario) {
  Input in;
  in.topo = &t;
  in.cfg = cfg;
  in.scenario = scenario;
  return in;
}

// --- The acceptance-criterion differential: after ANY link down/up
// sequence, the incremental report is byte-identical to a from-scratch
// analyze() on the mutated topology. Deltas toggle a random switch link
// (fail when up, restore when down), recompute shortest paths, and
// compare full JSON bytes — the strictest equality the report offers.

std::size_t run_flap_differential(
    topo::Topology& t, const runner::ScenarioConfig& cfg,
    const std::string& label, int deltas, std::uint64_t seed,
    const std::vector<topo::LinkIndex>& candidates,
    std::vector<std::size_t>* class_counts = nullptr) {
  SCOPED_TRACE(label);
  const Input in = input_for(t, cfg, label);
  IncrementalAnalyzer inc(in);
  sim::Rng rng(seed);
  std::size_t mismatches = 0;
  for (int step = 0; step < deltas; ++step) {
    const topo::LinkIndex li = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    if (t.link(li).up)
      t.fail_link(li);
    else
      t.restore_link(li);
    const topo::RoutingTable routing = topo::compute_shortest_paths(t);
    if (class_counts != nullptr) class_counts->push_back(routing.class_count());
    const std::string incremental = inc.update(routing).json();
    Input scratch = in;
    scratch.routing = &routing;
    const std::string fresh = analyze(scratch).json();
    if (incremental != fresh) {
      ++mismatches;
      ADD_FAILURE() << label << " step " << step << " (link " << li
                    << "): incremental report diverged from from-scratch";
      break;  // one full-JSON diff in the log is enough
    }
  }
  return mismatches;
}

TEST(IncrementalDifferential, RingFlapSequencesMatchFromScratch) {
  // The bulk of the 10^4-delta budget runs on cheap rings (seconds, not
  // minutes): every delta still exercises the dst-cache compare, the SCC
  // cache, and the truncation fallback decision.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  topo::Topology r3;
  topo::build_ring(r3, 3);
  EXPECT_EQ(run_flap_differential(r3, cfg, "flap-ring3", 3000, 101,
                                  r3.switch_links()),
            0u);
  topo::Topology r6;
  topo::build_ring(r6, 6);
  EXPECT_EQ(run_flap_differential(r6, cfg, "flap-ring6", 6500, 202,
                                  r6.switch_links()),
            0u);
}

TEST(IncrementalDifferential, FatTreeFlapSequencesMatchFromScratch) {
  // Fat-tree deltas are where reroutes actually mint and dissolve cycles
  // (valley paths after edge-agg failures); fewer steps, same invariant.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  topo::Topology t;
  topo::build_fattree(t, 4);
  EXPECT_EQ(run_flap_differential(t, cfg, "flap-fattree4", 500, 303,
                                  t.switch_links()),
            0u);
}

TEST(IncrementalDifferential, HostLinkFlapsChangeTheClassesAndMatch) {
  // Host links flap too, so hosts leave and rejoin their edge switch's
  // destination class between updates: class numbers shift, and the
  // per-class caches must still give from-scratch bytes.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  topo::Topology t;
  topo::build_fattree(t, 4);
  std::vector<topo::LinkIndex> all(t.link_count());
  for (std::size_t l = 0; l < all.size(); ++l)
    all[l] = static_cast<topo::LinkIndex>(l);
  std::vector<std::size_t> classes;
  EXPECT_EQ(run_flap_differential(t, cfg, "flap-hosts-fattree4", 400, 505, all,
                                  &classes),
            0u);
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  EXPECT_GE(classes.size(), 3u);  // the partition really changed
}

TEST(IncrementalDifferential, TruncatingTopologyStillMatches) {
  // A dense graph that truncates at a tiny cap forces the exact
  // whole-graph fallback; byte-identity must hold through it.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(12 * 7919 + 4);
  topo::random_failures(t, rng, 0.05);
  Input in = input_for(t, cfg, "flap-dense");
  in.max_cycles = 16;
  IncrementalAnalyzer inc(in);
  const std::vector<topo::LinkIndex> candidates = t.switch_links();
  sim::Rng flip(404);
  for (int step = 0; step < 40; ++step) {
    const topo::LinkIndex li = candidates[static_cast<std::size_t>(
        flip.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    if (t.link(li).up)
      t.fail_link(li);
    else
      t.restore_link(li);
    const topo::RoutingTable routing = topo::compute_shortest_paths(t);
    Input scratch = in;
    scratch.routing = &routing;
    ASSERT_EQ(inc.update(routing).json(), analyze(scratch).json())
        << "step " << step;
  }
  EXPECT_GT(inc.stats().full_fallbacks, 0u);
}

// --- Which path produces the capped whole-graph cycle set. A report that
// hits the cap must list exactly the cycles a from-scratch whole-graph run
// keeps. With one cyclic SCC that SCC's own run is that run; with two or
// more the analyzer re-runs Johnson on the whole graph.

/// One island of switches, each with one host: a `kRing` is routed
/// clockwise (its dependency graph is one cycle); in a `kMesh` every
/// switch forwards toward every other one (one dense SCC with many
/// cycles).
enum class Island { kRing, kMesh };

struct Islands {
  topo::Topology topo;
  topo::RoutingTable routing;
};

/// Disjoint islands with hand-written routing: one cyclic SCC per island.
/// Islands are added in list order, so the first island's dependency
/// vertices get the smallest ids. Hosts in different islands are
/// unroutable.
Islands make_islands(const std::vector<std::pair<Island, int>>& islands) {
  Islands out;
  topo::Topology& t = out.topo;
  struct Member {
    topo::NodeIndex sw, host;
    std::size_t island;
  };
  std::vector<Member> members;
  for (std::size_t i = 0; i < islands.size(); ++i)
    for (int j = 0; j < islands[i].second; ++j) {
      const std::string id = std::to_string(i) + "_" + std::to_string(j);
      members.push_back({t.add_switch("S" + id), t.add_host("H" + id), i});
    }
  std::vector<std::vector<topo::NodeIndex>> sws(islands.size());
  for (const Member& m : members) {
    t.add_link(m.host, m.sw);
    sws[m.island].push_back(m.sw);
  }
  for (std::size_t i = 0; i < islands.size(); ++i) {
    const auto& s = sws[i];
    for (std::size_t a = 0; a < s.size(); ++a) {
      if (islands[i].first == Island::kRing) {
        t.add_link(s[a], s[(a + 1) % s.size()]);
        continue;
      }
      for (std::size_t b = a + 1; b < s.size(); ++b) t.add_link(s[a], s[b]);
    }
  }

  // One class per host; each member adds its switch, then its host, so
  // rows go in ascending node order.
  topo::RoutingTable::Builder table(t.node_count());
  for (const Member& d : members) {
    const auto& s = sws[d.island];
    table.begin_class({&d.host, 1});
    for (const Member& m : members) {
      if (m.island != d.island) continue;
      if (m.sw == d.sw) {
        table.set_row(d.sw, {d.host});
        continue;
      }
      std::vector<topo::NodeIndex> hops;
      if (islands[d.island].first == Island::kRing) {
        const auto at = std::find(s.begin(), s.end(), m.sw) - s.begin();
        hops.push_back(s[static_cast<std::size_t>(at + 1) % s.size()]);
      } else {
        for (const topo::NodeIndex n : s)
          if (n != m.sw) hops.push_back(n);
      }
      table.set_row(m.sw, hops);
      table.set_row(m.host, {m.sw});
    }
  }
  out.routing = std::move(table).finish();
  return out;
}

/// update() on `routing` twice (fresh caches, then warm ones), each
/// report byte-identical to a from-scratch analyze().
IncrementalAnalyzer::Stats update_matches_analyze(
    const Input& in, const topo::RoutingTable& routing, Report* report) {
  IncrementalAnalyzer inc(in);
  Input scratch = in;
  scratch.routing = &routing;
  const std::string fresh = analyze(scratch).json();
  for (int pass = 0; pass < 2; ++pass) {
    *report = inc.update(routing);
    EXPECT_EQ(report->json(), fresh) << "pass " << pass;
  }
  return inc.stats();
}

TEST(IncrementalTruncation, TwoSccsOneTruncatingReRunsJohnson) {
  // The ring's vertices come first, so the capped whole-graph run keeps
  // the ring's cycle plus 15 mesh cycles: the mesh SCC's own capped run
  // (16 mesh cycles) would be the wrong report.
  const Islands is = make_islands({{Island::kRing, 3}, {Island::kMesh, 4}});
  Input in = input_for(is.topo, cli_config(runner::FcKind::kPfc, 300'000),
                       "ring-and-mesh");
  in.max_cycles = 16;
  Report rep;
  const auto stats = update_matches_analyze(in, is.routing, &rep);
  EXPECT_EQ(rep.cyclic_sccs, 2u);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.cycles.size(), 16u);
  EXPECT_EQ(stats.full_fallbacks, 2u);
  EXPECT_EQ(stats.whole_graph_reruns, 2u);
}

TEST(IncrementalTruncation, TwoSccsOverTheCapReRunJohnson) {
  // Neither ring truncates at cap 1 (each has exactly one cycle), but
  // their union of two does.
  const Islands is = make_islands({{Island::kRing, 3}, {Island::kRing, 4}});
  Input in = input_for(is.topo, cli_config(runner::FcKind::kPfc, 300'000),
                       "two-rings");
  in.max_cycles = 1;
  Report rep;
  const auto stats = update_matches_analyze(in, is.routing, &rep);
  EXPECT_EQ(rep.cyclic_sccs, 2u);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.cycles.size(), 1u);
  EXPECT_EQ(stats.scc_enumerations, 2u);  // the second pass hits the cache
  EXPECT_EQ(stats.whole_graph_reruns, 2u);
}

TEST(IncrementalTruncation, SoleTruncatingSccNeedsNoReRun) {
  // Table 1's seed 12 at k = 4: one cyclic SCC with more than 16 cycles.
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("fattree:4:seed=12", &sc, &err)) << err;
  Input in = input_for(sc.topo, cli_config(runner::FcKind::kPfc, 300'000),
                       sc.name);
  in.flows = sc.flows;
  in.max_cycles = 16;
  Report rep;
  const auto stats = update_matches_analyze(in, sc.routing, &rep);
  EXPECT_EQ(rep.cyclic_sccs, 1u);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(stats.full_fallbacks, 2u);
  EXPECT_EQ(stats.whole_graph_reruns, 0u);

  // The same holds for a lone mesh island.
  const Islands mesh = make_islands({{Island::kMesh, 4}});
  Input mesh_in = input_for(
      mesh.topo, cli_config(runner::FcKind::kPfc, 300'000), "mesh");
  mesh_in.max_cycles = 16;
  const auto mesh_stats = update_matches_analyze(mesh_in, mesh.routing, &rep);
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(mesh_stats.full_fallbacks, 2u);
  EXPECT_EQ(mesh_stats.whole_graph_reruns, 0u);
}

// --- elementary_cycles on its own.

TEST(ElementaryCycles, DiscoveryOrderAndCap) {
  // 0 -> 1 -> 2 -> 0 with a chord 1 -> 0 and a self-loop at 2. Roots go
  // ascending and edges in list order; no sort follows.
  const Adjacency g = {{1}, {2, 0}, {0, 2}};
  const CycleEnumeration all = elementary_cycles(g);
  EXPECT_FALSE(all.truncated);
  EXPECT_EQ(all.cycles,
            (std::vector<std::vector<int>>{{0, 1, 2}, {0, 1}, {2}}));
  const CycleEnumeration capped = elementary_cycles(g, 2);
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.cycles, (std::vector<std::vector<int>>{{0, 1, 2}, {0, 1}}));
  // Exactly at the cap: no further cycle was attempted.
  EXPECT_FALSE(elementary_cycles(g, 3).truncated);
}

/// A random digraph on `n` vertices with exactly one cyclic SCC. The core
/// (`core` random vertex ids) gets a Hamiltonian cycle, random chords and
/// self-loops; every other edge runs forward in a random topological
/// order in which the core is one block, so no other cycle can form.
/// Out-edge lists are shuffled, since edge order steers the enumeration.
Adjacency one_core_digraph(sim::Rng& rng, int n, int core) {
  std::vector<int> seq(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) seq[static_cast<std::size_t>(v)] = v;
  rng.shuffle(seq);
  const int first = static_cast<int>(rng.uniform_int(0, n - core));
  std::vector<int> order(static_cast<std::size_t>(n));  // topological rank
  for (int i = 0; i < n; ++i)
    order[static_cast<std::size_t>(seq[static_cast<std::size_t>(i)])] =
        i < first ? i : std::max(first, i - core + 1);
  const auto in_core = [&](int v) {
    return order[static_cast<std::size_t>(v)] == first;
  };
  Adjacency g(static_cast<std::size_t>(n));
  const auto add = [&g](int u, int v) {
    auto& out = g[static_cast<std::size_t>(u)];
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  };
  for (int i = 0; i < core; ++i)
    add(seq[static_cast<std::size_t>(first + i)],
        seq[static_cast<std::size_t>(first + (i + 1) % core)]);
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) {
      const int ru = order[static_cast<std::size_t>(u)];
      const int rv = order[static_cast<std::size_t>(v)];
      if (in_core(u) && in_core(v)) {
        if (rng.chance(u == v ? 0.15 : 0.35)) add(u, v);
      } else if (ru < rv && rng.chance(0.2)) {
        add(u, v);
      }
    }
  for (auto& out : g) rng.shuffle(out);
  return g;
}

TEST(ElementaryCycles, SoleCyclicSccRunEqualsWholeGraphRun) {
  // The premise of the incremental analyzer's truncation path: restricted
  // to the only cyclic SCC (same vertex ids, same edge order), Johnson
  // finds the same cycles in the same order, up to the same cap.
  sim::Rng rng(20261017);
  int truncated_at_16 = 0, complete_at_4096 = 0;
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE(trial);
    const int n = static_cast<int>(rng.uniform_int(4, 24));
    const int core = static_cast<int>(rng.uniform_int(2, std::min(n, 9)));
    const Adjacency g = one_core_digraph(rng, n, core);
    std::vector<int> sole;
    int cyclic = 0;
    for (const auto& comp : strongly_connected_components(g))
      if (cyclic_component(g, comp)) {
        ++cyclic;
        sole = comp;
      }
    ASSERT_EQ(cyclic, 1);
    Adjacency restricted(g.size());
    for (const int v : sole)
      for (const int w : g[static_cast<std::size_t>(v)])
        if (std::find(sole.begin(), sole.end(), w) != sole.end())
          restricted[static_cast<std::size_t>(v)].push_back(w);
    for (const std::size_t cap : {std::size_t{1}, std::size_t{16},
                                  std::size_t{4096}}) {
      const CycleEnumeration whole = elementary_cycles(g, cap);
      const CycleEnumeration alone = elementary_cycles(restricted, cap);
      EXPECT_EQ(alone.truncated, whole.truncated) << "cap " << cap;
      EXPECT_EQ(alone.cycles, whole.cycles) << "cap " << cap;
      if (cap == 16 && whole.truncated) ++truncated_at_16;
      if (cap == 4096 && !whole.truncated) ++complete_at_4096;
    }
  }
  // Both outcomes of the cap were exercised.
  EXPECT_GT(truncated_at_16, 0);
  EXPECT_GT(complete_at_4096, 0);
}

TEST(IncrementalStats, CachesEngageAcrossAFlapPair) {
  // The dst cache compares against the PREVIOUS routing column, so an
  // unchanged routing must reuse every destination (and the cyclic ring
  // SCC must hit the shape cache), while a flap must recompute at least
  // the columns the reroute touched.
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  topo::Topology& t = sc.topo;
  const std::size_t hosts = t.hosts().size();
  IncrementalAnalyzer inc(
      input_for(t, cli_config(runner::FcKind::kPfc, 300'000), "cache-check"));
  inc.update(sc.routing);  // the forced ring routing: one cyclic SCC
  EXPECT_EQ(inc.stats().dst_recomputed, hosts);
  EXPECT_EQ(inc.stats().scc_enumerations, 1u);
  inc.update(sc.routing);  // identical routing: everything served from cache
  EXPECT_EQ(inc.stats().dst_reused, hosts);
  EXPECT_EQ(inc.stats().scc_reused, 1u);
  const topo::LinkIndex li = t.switch_links().front();
  t.fail_link(li);
  inc.update(topo::compute_shortest_paths(t));
  t.restore_link(li);
  inc.update(topo::compute_shortest_paths(t));
  EXPECT_EQ(inc.stats().updates, 4u);
  EXPECT_GT(inc.stats().dst_recomputed, hosts);
  EXPECT_EQ(inc.stats().full_fallbacks, 0u);
}

// --- Witness-cycle membership properties (ring / loop2 / fattree): a
// runtime witness walks the cycle starting at an arbitrary hop, so every
// rotation of every enumerated cycle must canonicalize back to a member,
// and corrupted cycles must not.

void check_rotation_membership(const std::string& spec) {
  SCOPED_TRACE(spec);
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario(spec, &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = analyze(in);
  ASSERT_FALSE(r.cycles.empty());
  for (const CycleInfo& c : r.cycles) {
    for (std::size_t off = 0; off < c.links.size(); ++off) {
      std::vector<topo::DirectedLink> rotated(c.links.begin() + off,
                                              c.links.end());
      rotated.insert(rotated.end(), c.links.begin(), c.links.begin() + off);
      topo::canonicalize_cycle(&rotated);
      EXPECT_TRUE(report_contains_cycle(r, rotated));
    }
    // A corrupted witness (one hop replaced by a bogus link) is rejected.
    std::vector<topo::DirectedLink> bogus = c.links;
    bogus.back() = {999, 998};
    topo::canonicalize_cycle(&bogus);
    EXPECT_FALSE(report_contains_cycle(r, bogus));
  }
}

TEST(WitnessOracle, RotationsOfEveryCycleAreMembers) {
  check_rotation_membership("ring:3:2");
  check_rotation_membership("ring:6:3");
  check_rotation_membership("loop2");
  check_rotation_membership("fattree:4:seed=22");
}

TEST(WitnessOracle, RingRuntimeWitnessIsInStaticEnumeration) {
  // The ring deadlocks organically under PFC; the detector's witness
  // cycle must map onto the static enumeration (check_witness_cycle
  // throws the run away otherwise).
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.witness_check = true;
  runner::RingScenario s = runner::make_ring(cfg, 3, 2);
  net::Network& net = s.fabric->net();
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  int checked = 0;
  dl_opts.on_detect = [&s, &checked](stats::DeadlockDetector& det) {
    if (runner::check_witness_cycle(*s.fabric, det)) ++checked;
  };
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(checked, 1);
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 1);
}

TEST(WitnessOracle, FatTreeStressWitnessIsInStaticEnumeration) {
  // The Table-1 seed-22 stress probe realizes a fat-tree CBD at runtime;
  // the cross-check must find its canonical cycle in the (post-failure)
  // static enumeration.
  topo::Topology t;
  topo::build_fattree(t, 4);
  sim::Rng rng(22 * 7919 + 4);
  const auto failed = topo::random_failures(t, rng, 0.05);
  const auto routing = topo::compute_shortest_paths(t);
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  const auto cbd = g.find_cycle();
  ASSERT_TRUE(cbd.has_cbd);
  auto stress = topo::build_cbd_stress(t, routing, cbd.cycle, rng);
  ASSERT_TRUE(stress.covered);

  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  cfg.witness_check = true;
  auto sc = runner::make_fattree(cfg, 4, failed);
  net::Network& net = sc.fabric->net();
  for (const auto& f : stress.flows) {
    net::Flow& flow =
        net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0);
    flow.path_salt = f.salt;
  }
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  int checked = 0;
  dl_opts.on_detect = [&sc, &checked](stats::DeadlockDetector& det) {
    EXPECT_TRUE(runner::check_witness_cycle(*sc.fabric, det));
    ++checked;
  };
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(checked, 1);
}

TEST(WitnessOracle, SkipsWhenAnalysisIsOff) {
  // No preflight, no witness_check: the fabric holds no analysis and the
  // check reports "skipped", never a false positive.
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kPfc, 300'000);
  runner::RingScenario s = runner::make_ring(cfg, 3, 2);
  net::Network& net = s.fabric->net();
  stats::DeadlockOptions dl_opts;
  dl_opts.stop_on_detect = true;
  stats::DeadlockDetector det(net, dl_opts);
  net.run_until(sim::ms(8));
  ASSERT_TRUE(det.deadlocked());
  EXPECT_EQ(s.fabric->analysis(), nullptr);
  EXPECT_FALSE(runner::check_witness_cycle(*s.fabric, det));
}

// --- Fabric re-verdict plumbing: mid-run reroutes re-analyze
// incrementally and the result matches from-scratch analysis.

TEST(IncrementalRunner, ReinstallReverdictsAndMatchesFromScratch) {
  runner::ScenarioConfig cfg = cli_config(runner::FcKind::kGfcBuffer, 300'000);
  cfg.witness_check = true;
  runner::FatTreeScenario s = runner::make_fattree(cfg, 4);
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 1);
  ASSERT_NE(s.fabric->analysis(), nullptr);
  EXPECT_EQ(s.fabric->analysis()->verdict(), Verdict::kDeadlockFree);

  const auto links = s.topo.switch_links();
  s.topo.fail_link(links[links.size() / 2]);
  s.reroute();
  EXPECT_EQ(s.fabric->analysis_reverdicts(), 2);

  Input in;
  in.topo = &s.topo;
  in.routing = &s.routing;
  in.cfg = cfg;
  EXPECT_EQ(s.fabric->analysis()->json(), analyze(in).json());
}

// --- The k-failure sweep.

TEST(FailureSweepTest, RingCombosAreExhaustiveAndDeterministic) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = sweep_failures(in, 2);
  ASSERT_TRUE(r.failure_sweep.has_value());
  const FailureSweep& fs = *r.failure_sweep;
  EXPECT_EQ(fs.max_failures, 2);
  // 3 switch-switch links: C(3,1) + C(3,2) = 6 combos.
  EXPECT_EQ(fs.combos, 6u);
  EXPECT_EQ(fs.results.size(), 6u);
  // Baseline is already at_risk: nothing can "flip" off it.
  EXPECT_EQ(fs.baseline, Verdict::kAtRisk);
  EXPECT_EQ(fs.flipped, 0u);
  EXPECT_TRUE(fs.culprits.empty());
  // Lexicographic by size then position, links ascending inside a combo.
  for (std::size_t i = 1; i < fs.results.size(); ++i) {
    const auto& a = fs.results[i - 1].links;
    const auto& b = fs.results[i].links;
    EXPECT_TRUE(a.size() < b.size() || (a.size() == b.size() && a < b));
  }
  // The whole report (v2 JSON section included) is byte-deterministic.
  EXPECT_EQ(r.json(), sweep_failures(in, 2).json());
}

TEST(FailureSweepTest, FlipSemanticsOnDeadlockFreeBaseline) {
  // Full fat-tree (SPF = up*/down* = no cycles): the baseline is
  // deadlock_free, and each combo's `flips` must equal "verdict isn't".
  topo::Topology t;
  topo::build_fattree(t, 4);
  const auto routing = topo::compute_shortest_paths(t);
  Input in;
  in.topo = &t;
  in.routing = &routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = "fattree4-sweep";
  const Report r = sweep_failures(in, 1);
  ASSERT_TRUE(r.failure_sweep.has_value());
  const FailureSweep& fs = *r.failure_sweep;
  EXPECT_EQ(fs.baseline, Verdict::kDeadlockFree);
  EXPECT_EQ(fs.combos, t.switch_links().size());
  std::size_t flipped = 0;
  for (const FailureCombo& c : fs.results) {
    EXPECT_EQ(c.flips, c.verdict != Verdict::kDeadlockFree);
    if (c.flips) ++flipped;
  }
  EXPECT_EQ(fs.flipped, flipped);
  // Every size-1 flipping combo is trivially minimal: culprits == flips.
  EXPECT_EQ(fs.culprits.size(), flipped);
  for (std::size_t idx : fs.culprits) {
    ASSERT_LT(idx, fs.results.size());
    EXPECT_TRUE(fs.results[idx].flips);
  }
}

// --- Repair suggestions.

TEST(RepairTest, RingRepairsAreVerifiedCbdFree) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("ring:3:2", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.flows = sc.flows;
  in.scenario = sc.name;
  Report r = analyze(in);
  ASSERT_FALSE(r.cycles.empty());
  const Repairs rep = suggest_repairs(in, r);
  ASSERT_FALSE(rep.suggestions.empty());
  for (const RepairSuggestion& s : rep.suggestions) {
    EXPECT_TRUE(s.kind == "link_removal" || s.kind == "turn_restriction");
    EXPECT_FALSE(s.removals.empty());
    EXPECT_GT(s.cycles_broken, 0u);
    // The ring's single CBD is trivially breakable both ways; the
    // re-verification must confirm it.
    EXPECT_TRUE(s.verified_cbd_free) << s.kind;
  }
  // Deterministic, including through the JSON section.
  r.repairs = rep;
  Report r2 = analyze(in);
  r2.repairs = suggest_repairs(in, r2);
  EXPECT_EQ(r.json(), r2.json());
}

TEST(RepairTest, CbdFreeReportYieldsNoSuggestions) {
  BuiltScenario sc;
  std::string err;
  ASSERT_TRUE(build_scenario("incast:4", &sc, &err)) << err;
  Input in;
  in.topo = &sc.topo;
  in.routing = &sc.routing;
  in.cfg = cli_config(runner::FcKind::kPfc, 300'000);
  in.scenario = sc.name;
  const Report r = analyze(in);
  ASSERT_TRUE(r.cbd_free());
  EXPECT_TRUE(suggest_repairs(in, r).suggestions.empty());
}

}  // namespace
}  // namespace gfc::analyze
