#include "analyze/analyze.hpp"

#include <algorithm>
#include <numeric>

#include "analyze/cycles.hpp"
#include "analyze/detail.hpp"
#include "net/packet.hpp"

namespace gfc::analyze {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kDeadlockFree: return "deadlock_free";
    case Verdict::kSafe: return "safe";
    case Verdict::kAtRisk: return "at_risk";
  }
  return "?";
}

bool Report::bounds_ok() const {
  return std::all_of(bounds.begin(), bounds.end(),
                     [](const BoundCheck& b) { return b.ok; });
}

Verdict Report::verdict() const {
  if (cbd_free()) return Verdict::kDeadlockFree;
  // A truncated enumeration saw only a prefix of the cycle set: any
  // safety argument quantified over "all cycles" is void, whatever the
  // mechanism, so never report better than at_risk from it.
  if (truncated) return Verdict::kAtRisk;
  // Circular wait exists; the mechanism decides whether hold-and-wait can
  // complete the deadlock. PFC and CBFC block indefinitely once paused /
  // out of credit. GFC's rate floor means every port always drains — but
  // only while the proven bound holds; past it the queue can saturate and
  // the guarantee is void. With no flow control there is no backpressure
  // to wait on (the fabric drops instead).
  switch (mechanism_kind) {
    case runner::FcKind::kNone:
      return Verdict::kSafe;
    case runner::FcKind::kPfc:
    case runner::FcKind::kCbfc:
    // DCFIT *recovers from* deadlock rather than preventing it: the static
    // verdict stays at-risk (the CBD can still wedge; detection then drops
    // or bypasses its way out at runtime).
    case runner::FcKind::kDcfit:
      return Verdict::kAtRisk;
    case runner::FcKind::kGfcBuffer:
    case runner::FcKind::kGfcTime:
    case runner::FcKind::kGfcConceptual:
      return bounds_ok() ? Verdict::kSafe : Verdict::kAtRisk;
  }
  return Verdict::kAtRisk;
}

namespace {

using topo::DirectedLink;

/// Consecutive switch-to-switch hops of a concrete node path (the
/// dependency-edge construction of BufferDependencyGraph::add_path).
std::vector<DirectedLink> switch_hops(const topo::Topology& topo,
                                      const std::vector<topo::NodeIndex>& path) {
  std::vector<DirectedLink> hops;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!topo.is_host(path[i]) && !topo.is_host(path[i + 1]))
      hops.push_back({path[i], path[i + 1]});
  return hops;
}

/// The report's cycle list, each CycleInfo built once in its final slot.
/// Canonical form rotates every cycle so its smallest link leads; canonical
/// order sorts by length, then by link sequence. Both are computed on
/// ranks (rank r = the r-th smallest vertex link), so comparing ranks
/// compares links and the result never depends on vertex numbering.
void fill_cycle_infos(const Input& in, const topo::BufferDependencyGraph& graph,
                      CycleEnumeration cycles, Report* rep) {
  rep->truncated = cycles.truncated;
  if (cycles.cycles.empty()) return;

  const std::vector<DirectedLink>& links = graph.links();
  std::vector<int> by_rank(links.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&links](int a, int b) {
    return links[static_cast<std::size_t>(a)] <
           links[static_cast<std::size_t>(b)];
  });
  std::vector<int> rank(links.size());
  std::vector<std::string> names(links.size());  // indexed by rank
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    const auto v = static_cast<std::size_t>(by_rank[r]);
    rank[v] = static_cast<int>(r);
    names[r] = in.topo->node(links[v].first).name + "->" +
               in.topo->node(links[v].second).name;
  }
  for (std::vector<int>& cyc : cycles.cycles) {
    for (int& v : cyc) v = rank[static_cast<std::size_t>(v)];
    std::rotate(cyc.begin(), std::min_element(cyc.begin(), cyc.end()),
                cyc.end());
  }
  std::sort(cycles.cycles.begin(), cycles.cycles.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });

  // Dependency edges each configured flow induces along its traced path.
  std::vector<std::vector<std::pair<DirectedLink, DirectedLink>>> flow_edges;
  for (const FlowSpec& f : in.flows) {
    const auto hops =
        switch_hops(*in.topo, in.routing->trace(f.src, f.dst, f.salt));
    std::vector<std::pair<DirectedLink, DirectedLink>> edges;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i)
      edges.push_back({hops[i], hops[i + 1]});
    flow_edges.push_back(std::move(edges));
  }

  rep->cycles.resize(cycles.cycles.size());
  for (std::size_t c = 0; c < cycles.cycles.size(); ++c) {
    const std::vector<int>& ranks = cycles.cycles[c];
    CycleInfo& info = rep->cycles[c];
    info.links.reserve(ranks.size());
    info.link_names.reserve(ranks.size());
    for (const int r : ranks) {
      info.links.push_back(
          links[static_cast<std::size_t>(by_rank[static_cast<std::size_t>(r)])]);
      info.link_names.push_back(names[static_cast<std::size_t>(r)]);
    }

    if (flow_edges.empty()) continue;  // nothing to cover or activate
    const std::size_t n = info.links.size();
    std::vector<char> edge_covered(n, 0);
    for (std::size_t fi = 0; fi < flow_edges.size(); ++fi) {
      bool touches = false;
      for (std::size_t e = 0; e < n; ++e) {
        const std::pair<DirectedLink, DirectedLink> edge{
            info.links[e], info.links[(e + 1) % n]};
        if (std::find(flow_edges[fi].begin(), flow_edges[fi].end(), edge) !=
            flow_edges[fi].end()) {
          edge_covered[e] = 1;
          touches = true;
        }
      }
      if (touches) info.flows.push_back(static_cast<int>(fi));
    }
    info.activated = std::all_of(edge_covered.begin(), edge_covered.end(),
                                 [](char c) { return c != 0; });
  }
}

void check_bounds(const Input& in, Report* rep) {
  const runner::FcSetup& fc = in.cfg.fc;
  const sim::Rate c = in.cfg.link.rate;
  const sim::TimePs tau = rep->tau_total;
  const std::int64_t capacity = in.cfg.switch_buffer;
  const std::int64_t mtu = in.cfg.link.mtu;
  const auto add = [rep](std::string name, std::string formula,
                         std::int64_t lhs, std::int64_t rhs) {
    rep->bounds.push_back(
        {std::move(name), std::move(formula), lhs, rhs, lhs <= rhs});
  };
  switch (fc.kind) {
    case runner::FcKind::kNone:
      break;
    case runner::FcKind::kPfc:
    case runner::FcKind::kDcfit:  // rides on PFC thresholds
      // Lossless headroom: everything in flight when PAUSE triggers (C*tau
      // plus packet-granularity slack, the derive() model) must still fit.
      add("pfc_headroom", "XOFF + C*tau + 2*MTU + 2*ctrl <= capacity",
          fc.xoff + core::bytes_over(c, tau) + 2 * mtu +
              2 * net::kControlFrameBytes,
          capacity);
      add("pfc_xon", "XON <= XOFF", fc.xon, fc.xoff);
      break;
    case runner::FcKind::kCbfc:
      // One credit round-trip of data must fit the advertised window.
      add("cbfc_period_inflight", "C*T + C*tau <= capacity",
          core::bytes_over(c, fc.period) + core::bytes_over(c, tau), capacity);
      break;
    case runner::FcKind::kGfcBuffer:
      add("gfc_buffer_b1", "B1 <= Bm - 2*C*tau", fc.b1,
          core::b1_bound_buffer(fc.bm, c, tau));
      add("gfc_buffer_bm", "Bm <= capacity", fc.bm, capacity);
      break;
    case runner::FcKind::kGfcTime:
      add("gfc_time_b0", "B0 <= Bm - (sqrt(tau/T)+1)^2 * C*T", fc.b0,
          core::b0_bound_timebased(fc.bm, c, tau, fc.period));
      add("gfc_time_bm", "Bm <= capacity", fc.bm, capacity);
      break;
    case runner::FcKind::kGfcConceptual:
      add("gfc_conceptual_b0", "B0 <= Bm - 4*C*tau", fc.b0,
          core::b0_bound_conceptual(fc.bm, c, tau));
      add("gfc_conceptual_bm", "Bm <= capacity", fc.bm, capacity);
      break;
  }
}

void lint_routing(const Input& in, Report* rep) {
  const topo::Topology& topo = *in.topo;
  const topo::RoutingTable& routing = *in.routing;
  const auto& hosts = topo.hosts();
  const auto& switches = topo.switches();

  // Unroutable host pairs (capped listing; the count is always exact).
  std::size_t unroutable = 0;
  for (const topo::NodeIndex s : hosts)
    for (const topo::NodeIndex d : hosts) {
      if (s == d || routing.routable(s, d)) continue;
      ++unroutable;
      if (unroutable <= 8)
        rep->lints.push_back({"unroutable", topo.node(s).name + " -> " +
                                                topo.node(d).name +
                                                " has no route"});
    }
  if (unroutable > 8)
    rep->lints.push_back(
        {"unroutable",
         "... " + std::to_string(unroutable - 8) + " more unroutable pairs"});

  // Per-destination next-hop graphs: loops and fat-tree valleys.
  int min_layer = 0, max_layer = 0;
  bool first_layer = true;
  for (const topo::NodeIndex s : switches) {
    const int l = topo.node(s).layer;
    if (first_layer) {
      min_layer = max_layer = l;
      first_layer = false;
    } else {
      min_layer = std::min(min_layer, l);
      max_layer = std::max(max_layer, l);
    }
  }
  const bool layered = max_layer > min_layer;

  // Per destination class: loops and fat-tree valleys. Host next hops are
  // deliveries, never transit, so every member of a class sees the same
  // switch rows and the same loop. Only the valley walk's seed order can
  // depend on which member is the destination, since its own row does not
  // seed the walk; the messages still name each host, in hosts() order.
  const std::size_t nodes = topo.node_count();
  const std::size_t classes = routing.class_count();
  const auto at = [](topo::NodeIndex v) { return static_cast<std::size_t>(v); };
  const auto host_pos = [&hosts](topo::NodeIndex h) {
    return static_cast<std::size_t>(
        std::lower_bound(hosts.begin(), hosts.end(), h) - hosts.begin());
  };
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  constexpr topo::DirectedLink kNoValley{-1, -1};
  std::vector<std::string> loop_of(classes);  // the loop's node chain, if any
  std::vector<topo::DirectedLink> valley_of(hosts.size(), kNoValley);
  std::vector<char> color(nodes);  // 0 white, 1 grey, 2 black
  std::vector<topo::NodeIndex> parent(nodes);
  std::vector<char> seen(2 * nodes);  // (switch, descended) BFS states
  // The host position whose row first holds each switch: over every host
  // row, and over all rows but one member's.
  std::vector<std::size_t> first_all(nodes), first_but(nodes);
  std::vector<std::pair<topo::NodeIndex, std::size_t>> stack;
  std::vector<std::pair<topo::NodeIndex, bool>> frontier;
  std::vector<topo::NodeIndex> seeds_all, seeds;

  // Valley lint: in the ECMP closure toward a destination, an up-edge
  // (layer increases) reachable after a down-edge violates up-down
  // routing. BFS over (switch, descended) states from the seed switches
  // tolerates broken (cyclic) tables; the first violation is reported.
  const auto valley_walk = [&](std::size_t c,
                               const std::vector<topo::NodeIndex>& from) {
    std::fill(seen.begin(), seen.end(), 0);
    frontier.clear();
    const auto visit = [&](topo::NodeIndex n, bool down) {
      char& state = seen[2 * at(n) + (down ? 1 : 0)];
      if (state == 0) frontier.push_back({n, down});
      state = 1;
    };
    for (const topo::NodeIndex n : from) visit(n, false);
    for (std::size_t qi = 0; qi < frontier.size(); ++qi) {
      const auto [v, descended] = frontier[qi];
      for (const topo::NodeIndex w : routing.row(c, v)) {
        if (topo.is_host(w)) continue;
        const int lv = topo.node(v).layer, lw = topo.node(w).layer;
        if (descended && lw > lv) return topo::DirectedLink{v, w};
        visit(w, descended || lw < lv);
      }
    }
    return kNoValley;
  };
  // The walk's seeds toward a member at host position `skip`: the switches
  // in the other hosts' rows, in order of first appearance.
  const auto seed_switches = [&](std::size_t c, std::size_t skip,
                                 std::vector<std::size_t>* first,
                                 std::vector<topo::NodeIndex>* out) {
    out->clear();
    std::fill(first->begin(), first->end(), kNone);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (i == skip) continue;
      for (const topo::NodeIndex n : routing.row(c, hosts[i])) {
        if (topo.is_host(n) || (*first)[at(n)] != kNone) continue;
        (*first)[at(n)] = i;
        out->push_back(n);
      }
    }
  };

  for (std::size_t c = 0; c < classes; ++c) {
    // Loop detection: tri-color DFS over switch next-hops, reporting the
    // first cycle found (deterministic: switches ascending, next hops in
    // table order).
    std::fill(color.begin(), color.end(), 0);
    bool loop_reported = false;
    for (const topo::NodeIndex root : switches) {
      if (loop_reported || color[at(root)] != 0) continue;
      stack.assign(1, {root, 0});
      color[at(root)] = 1;
      while (!stack.empty() && !loop_reported) {
        auto& [v, next] = stack.back();
        const std::span<const topo::NodeIndex> hops = routing.row(c, v);
        std::size_t i = next++;
        // Skip host next-hops (delivery, not transit).
        while (i < hops.size() && topo.is_host(hops[i])) i = next++;
        if (i < hops.size()) {
          const topo::NodeIndex w = hops[i];
          if (color[at(w)] == 0) {
            color[at(w)] = 1;
            parent[at(w)] = v;
            stack.push_back({w, 0});
          } else if (color[at(w)] == 1) {
            // The tree path w .. v, then the back edge closing on w.
            std::vector<topo::NodeIndex> chain{v};
            for (topo::NodeIndex u = v; u != w; u = parent[at(u)])
              chain.push_back(parent[at(u)]);
            std::string cyc;
            for (auto it = chain.rbegin(); it != chain.rend(); ++it)
              cyc += topo.node(*it).name + " -> ";
            cyc += topo.node(w).name;
            loop_of[c] = std::move(cyc);
            loop_reported = true;
          }
        } else {
          color[at(v)] = 2;
          stack.pop_back();
        }
      }
    }

    if (!layered) continue;
    // Seeds over every host's row serve each member whose own row adds no
    // switch first; for the rest, the seeds are rebuilt without that row.
    seed_switches(c, kNone, &first_all, &seeds_all);
    bool walked_all = false;
    topo::DirectedLink all = kNoValley;
    for (const topo::NodeIndex m : routing.members(c)) {
      const std::size_t p = host_pos(m);
      const std::span<const topo::NodeIndex> own = routing.row(c, m);
      if (std::any_of(own.begin(), own.end(), [&](topo::NodeIndex n) {
            return !topo.is_host(n) && first_all[at(n)] == p;
          })) {
        seed_switches(c, p, &first_but, &seeds);
        if (seeds != seeds_all) {
          valley_of[p] = valley_walk(c, seeds);
          continue;
        }
      }
      if (!walked_all) {
        all = valley_walk(c, seeds_all);
        walked_all = true;
      }
      valley_of[p] = all;
    }
  }

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::int32_t c = routing.class_of(hosts[i]);
    if (c < 0) continue;
    const std::string& dst = topo.node(hosts[i]).name;
    if (!loop_of[static_cast<std::size_t>(c)].empty())
      rep->lints.push_back({"routing_loop", "routing toward " + dst + " loops: " +
                                                loop_of[static_cast<std::size_t>(c)]});
    const auto [v, w] = valley_of[i];
    if (v >= 0)
      rep->lints.push_back(
          {"valley", "route toward " + dst + " climbs after descending: " +
                         topo.node(v).name + " -> " + topo.node(w).name});
  }
}

}  // namespace

namespace detail {

Report finish_report(const Input& in, const topo::BufferDependencyGraph& graph,
                     const std::vector<std::vector<int>>& sccs,
                     CycleEnumeration cycles) {
  Report rep;
  rep.scenario = in.scenario;
  rep.mechanism_kind = in.cfg.fc.kind;
  rep.mechanism = runner::fc_name(in.cfg.fc.kind);
  rep.hosts = in.topo->hosts().size();
  rep.switches = in.topo->switches().size();
  for (std::size_t l = 0; l < in.topo->link_count(); ++l)
    if (in.topo->link(static_cast<topo::LinkIndex>(l)).up) ++rep.links_up;
  rep.buffer_per_port = in.cfg.switch_buffer;

  rep.tau_serialization = 2 * sim::tx_time(in.cfg.link.rate, in.cfg.link.mtu);
  rep.tau_wire = 2 * in.cfg.link.prop_delay;
  rep.tau_processing = in.cfg.control_delay;
  rep.tau_total = in.cfg.tau();

  const Adjacency& adj = graph.adjacency();
  rep.bdg_vertices = graph.vertex_count();
  for (const auto& out : adj) rep.bdg_edges += out.size();
  rep.sccs = sccs.size();
  for (const auto& comp : sccs)
    if (cyclic_component(adj, comp)) ++rep.cyclic_sccs;

  if (cycles.truncated) {
    const std::string label =
        in.scenario.empty() ? std::string() : in.scenario + ": ";
    std::fprintf(stderr,
                 "analyze: %scycle enumeration truncated at %zu cycles; "
                 "verdict degraded to at_risk\n",
                 label.c_str(), in.max_cycles);
  }
  fill_cycle_infos(in, graph, std::move(cycles), &rep);
  check_bounds(in, &rep);
  lint_routing(in, &rep);
  return rep;
}

}  // namespace detail

Report analyze(const Input& in) {
  topo::BufferDependencyGraph graph(*in.topo);
  graph.add_routing_closure(*in.routing);
  const Adjacency& adj = graph.adjacency();
  return detail::finish_report(in, graph, strongly_connected_components(adj),
                               elementary_cycles(adj, in.max_cycles));
}

bool report_contains_cycle(const Report& rep,
                           const std::vector<topo::DirectedLink>& cycle) {
  return std::any_of(
      rep.cycles.begin(), rep.cycles.end(),
      [&](const CycleInfo& info) { return info.links == cycle; });
}

CbdScreen screen_cbd(const topo::Topology& topo,
                     const topo::RoutingTable& routing) {
  topo::BufferDependencyGraph g(topo);
  g.add_routing_closure(routing);
  const topo::CbdResult r = g.find_cycle();
  CbdScreen out;
  out.prone = r.has_cbd;
  if (r.has_cbd) {
    out.cycle = r.cycle;
    out.witness = topo::describe_links(topo, r.cycle);
  }
  return out;
}

Verdict preflight_verdict(PreflightMode mode, const Report& rep) {
  const Verdict v = rep.verdict();
  if (mode == PreflightMode::kOff) return v;
  if (v != Verdict::kDeadlockFree || !rep.lints.empty()) {
    const std::string label =
        rep.scenario.empty() ? std::string() : rep.scenario + ": ";
    std::fprintf(stderr, "preflight %s%s\n", label.c_str(),
                 rep.summary().c_str());
  }
  if (mode == PreflightMode::kFail && v == Verdict::kAtRisk)
    throw PreflightError("preflight: " + rep.summary());
  return v;
}

}  // namespace gfc::analyze
