#include "analyze/repair.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "analyze/cycles.hpp"
#include "topo/routing.hpp"

namespace gfc::analyze {

namespace {

using topo::DirectedLink;

/// Greedy minimum hitting set over `sets` (each a sorted list of element
/// ids): repeatedly take the element covering the most un-hit sets,
/// breaking ties toward the smallest id. Returns the chosen element ids.
std::vector<int> greedy_hitting_set(
    const std::vector<std::vector<int>>& sets, int element_count) {
  std::vector<int> chosen;
  std::vector<char> hit(sets.size(), 0);
  std::size_t remaining = sets.size();
  while (remaining > 0) {
    std::vector<std::size_t> coverage(static_cast<std::size_t>(element_count),
                                      0);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      if (hit[s]) continue;
      for (const int e : sets[s]) ++coverage[static_cast<std::size_t>(e)];
    }
    int best = -1;
    for (int e = 0; e < element_count; ++e)
      if (best < 0 || coverage[static_cast<std::size_t>(e)] >
                          coverage[static_cast<std::size_t>(best)])
        best = e;
    if (best < 0 || coverage[static_cast<std::size_t>(best)] == 0) break;
    chosen.push_back(best);
    for (std::size_t s = 0; s < sets.size(); ++s)
      if (!hit[s] && std::binary_search(sets[s].begin(), sets[s].end(), best)) {
        hit[s] = 1;
        --remaining;
      }
  }
  return chosen;
}

std::size_t count_broken(const std::vector<std::vector<int>>& sets,
                         const std::vector<int>& chosen) {
  std::size_t broken = 0;
  for (const auto& s : sets)
    for (const int e : chosen)
      if (std::binary_search(s.begin(), s.end(), e)) {
        ++broken;
        break;
      }
  return broken;
}

}  // namespace

Repairs suggest_repairs(const Input& in, const Report& rep) {
  Repairs out;
  const bool any_activated =
      std::any_of(rep.cycles.begin(), rep.cycles.end(),
                  [](const CycleInfo& c) { return c.activated; });
  out.targeting_activated = any_activated;
  std::vector<const CycleInfo*> targets;
  for (const CycleInfo& c : rep.cycles)
    if (!any_activated || c.activated) targets.push_back(&c);
  if (targets.empty()) return out;

  const topo::Topology& topo = *in.topo;

  // --- link_removal: elements are undirected switch-switch links. ---
  {
    // Element ids in sorted (min-endpoint, max-endpoint) order, so the
    // greedy's smallest-id tie break is the smallest link name pair.
    std::map<std::pair<topo::NodeIndex, topo::NodeIndex>, int> ids;
    for (const CycleInfo* c : targets)
      for (const auto& [from, to] : c->links)
        ids.try_emplace({std::min(from, to), std::max(from, to)}, 0);
    int next = 0;
    for (auto& [key, id] : ids) id = next++;

    std::vector<std::vector<int>> sets;
    for (const CycleInfo* c : targets) {
      std::vector<int> s;
      for (const auto& [from, to] : c->links)
        s.push_back(ids.at({std::min(from, to), std::max(from, to)}));
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      sets.push_back(std::move(s));
    }
    const std::vector<int> chosen = greedy_hitting_set(sets, next);

    std::vector<std::pair<topo::NodeIndex, topo::NodeIndex>> by_id(
        static_cast<std::size_t>(next));
    for (const auto& [key, id] : ids) by_id[static_cast<std::size_t>(id)] = key;

    RepairSuggestion sug;
    sug.kind = "link_removal";
    sug.cycles_broken = count_broken(sets, chosen);
    topo::Topology scratch = topo;
    for (const int e : chosen) {
      const auto [a, b] = by_id[static_cast<std::size_t>(e)];
      sug.removals.push_back(topo.node(a).name + "-" + topo.node(b).name);
      for (std::size_t l = 0; l < scratch.link_count(); ++l) {
        const topo::TopoLink& link =
            scratch.link(static_cast<topo::LinkIndex>(l));
        if ((link.a == a && link.b == b) || (link.a == b && link.b == a))
          scratch.fail_link(static_cast<topo::LinkIndex>(l));
      }
    }
    // Re-verify on the *rerouted* survivor topology: removals that break
    // today's cycles can still mint new ones once traffic reroutes.
    const topo::RoutingTable rerouted = topo::compute_shortest_paths(scratch);
    Input verify = in;
    verify.topo = &scratch;
    verify.routing = &rerouted;
    verify.flows.clear();
    sug.verified_cbd_free = analyze(verify).cbd_free();
    out.suggestions.push_back(std::move(sug));
  }

  // --- turn_restriction: elements are dependency edges a->b -> b->c. ---
  {
    std::map<std::pair<DirectedLink, DirectedLink>, int> ids;
    for (const CycleInfo* c : targets) {
      const std::size_t n = c->links.size();
      for (std::size_t e = 0; e < n; ++e)
        ids.try_emplace({c->links[e], c->links[(e + 1) % n]}, 0);
    }
    int next = 0;
    for (auto& [key, id] : ids) id = next++;

    std::vector<std::vector<int>> sets;
    for (const CycleInfo* c : targets) {
      std::vector<int> s;
      const std::size_t n = c->links.size();
      for (std::size_t e = 0; e < n; ++e)
        s.push_back(ids.at({c->links[e], c->links[(e + 1) % n]}));
      std::sort(s.begin(), s.end());
      sets.push_back(std::move(s));
    }
    const std::vector<int> chosen = greedy_hitting_set(sets, next);

    std::vector<std::pair<DirectedLink, DirectedLink>> by_id(
        static_cast<std::size_t>(next));
    for (const auto& [key, id] : ids) by_id[static_cast<std::size_t>(id)] = key;

    RepairSuggestion sug;
    sug.kind = "turn_restriction";
    sug.cycles_broken = count_broken(sets, chosen);
    std::vector<char> banned(static_cast<std::size_t>(next), 0);
    for (const int e : chosen) {
      const auto& [ab, bc] = by_id[static_cast<std::size_t>(e)];
      banned[static_cast<std::size_t>(e)] = 1;
      sug.removals.push_back(topo.node(ab.first).name + "->" +
                             topo.node(ab.second).name + "->" +
                             topo.node(bc.second).name);
    }
    // Verify on the dependency graph itself: restricting turns leaves the
    // topology and routing alone, so acyclicity of the filtered graph is
    // the whole check.
    topo::BufferDependencyGraph graph(topo);
    graph.add_routing_closure(*in.routing);
    const auto& links = graph.links();
    Adjacency filtered(graph.adjacency().size());
    for (std::size_t v = 0; v < graph.adjacency().size(); ++v)
      for (const int w : graph.adjacency()[v]) {
        const auto it =
            ids.find({links[v], links[static_cast<std::size_t>(w)]});
        if (it != ids.end() && banned[static_cast<std::size_t>(it->second)])
          continue;
        filtered[v].push_back(w);
      }
    const auto sccs = strongly_connected_components(filtered);
    sug.verified_cbd_free =
        std::none_of(sccs.begin(), sccs.end(), [&](const std::vector<int>& c) {
          return cyclic_component(filtered, c);
        });
    out.suggestions.push_back(std::move(sug));
  }

  return out;
}

}  // namespace gfc::analyze
