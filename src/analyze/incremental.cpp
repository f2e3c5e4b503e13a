#include "analyze/incremental.hpp"

#include <algorithm>
#include <iterator>

#include "analyze/cycles.hpp"
#include "analyze/detail.hpp"

namespace gfc::analyze {

namespace {

/// Keep the SCC cycle cache bounded during long flap campaigns / large
/// failure sweeps. FIFO keeps eviction deterministic.
constexpr std::size_t kSccCacheCap = 64;

}  // namespace

const Report& IncrementalAnalyzer::update(const topo::RoutingTable& routing) {
  ++stats_.updates;
  stats_.dst_recomputed += routing.class_count();
  topo::BufferDependencyGraph graph(*in_.topo);
  graph.add_routing_closure(routing);

  const auto& links = graph.links();
  const Adjacency& adj = graph.adjacency();
  const auto at = [](int v) { return static_cast<std::size_t>(v); };

  // Cycle enumeration per cyclic SCC, served from the shape cache when the
  // SCC's canonical shape was seen before. Elementary cycles never cross
  // SCC boundaries, so the union over cyclic SCCs is the whole-graph
  // enumeration's cycle set.
  const auto sccs = strongly_connected_components(adj);
  std::vector<std::size_t> scc_of(adj.size());
  std::vector<std::size_t> cyclic;
  for (std::size_t c = 0; c < sccs.size(); ++c) {
    for (const int v : sccs[c]) scc_of[at(v)] = c;
    if (cyclic_component(adj, sccs[c])) cyclic.push_back(c);
  }
  // A cyclic vertex's position in its SCC's link order.
  std::vector<int> pos(adj.size(), -1);
  CycleEnumeration cycles;
  bool capped = false;
  for (const std::size_t c : cyclic) {
    std::vector<int> order = sccs[c];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return links[at(a)] < links[at(b)];
    });
    SccShape shape;
    for (std::size_t i = 0; i < order.size(); ++i) {
      pos[at(order[i])] = static_cast<int>(i);
      shape.members.push_back(links[at(order[i])]);
    }
    for (const int v : order)
      for (const int w : adj[at(v)])
        if (scc_of[at(w)] == c) shape.edges.push_back({pos[at(v)], pos[at(w)]});
    std::sort(shape.edges.begin(), shape.edges.end());

    const auto hit =
        std::find_if(scc_cache_.begin(), scc_cache_.end(),
                     [&](const SccCacheEntry& e) { return e.shape == shape; });
    if (hit != scc_cache_.end()) {
      ++stats_.scc_reused;
      for (const std::vector<int>& cached : hit->cycles) {
        std::vector<int>& cyc = cycles.cycles.emplace_back();
        cyc.reserve(cached.size());
        for (const int p : cached) cyc.push_back(order[at(p)]);
      }
      continue;
    }

    ++stats_.scc_enumerations;
    Adjacency sub(adj.size());
    for (const int v : sccs[c])
      for (const int w : adj[at(v)])
        if (scc_of[at(w)] == c) sub[at(v)].push_back(w);
    CycleEnumeration e = elementary_cycles(sub, in_.max_cycles);
    if (e.truncated) {
      // An incomplete per-SCC set can't be cached or unioned. As the
      // graph's only cyclic SCC, though, its run is exactly the capped
      // whole-graph run: same roots, same edge order, same cap.
      capped = true;
      if (cyclic.size() == 1) cycles = std::move(e);
      break;
    }
    SccCacheEntry entry{std::move(shape), {}};
    entry.cycles.reserve(e.cycles.size());
    for (const std::vector<int>& cyc : e.cycles) {
      std::vector<int>& positions = entry.cycles.emplace_back();
      positions.reserve(cyc.size());
      for (const int v : cyc) positions.push_back(pos[at(v)]);
    }
    cycles.cycles.insert(cycles.cycles.end(),
                         std::make_move_iterator(e.cycles.begin()),
                         std::make_move_iterator(e.cycles.end()));
    if (scc_cache_.size() >= kSccCacheCap)
      scc_cache_.erase(scc_cache_.begin());
    scc_cache_.push_back(std::move(entry));
  }

  // Equivalence guard: the whole-graph enumeration caps the *total* at
  // max_cycles (and only reports truncated when a further cycle was
  // actually attempted past the cap). With two or more cyclic SCCs, their
  // runs can't tell which cycles the capped whole-graph run keeps, so a
  // truncation — or a union larger than the cap — re-runs Johnson once on
  // the identical adjacency. Union <= cap implies the from-scratch run
  // never hit the cap either, so the union is exactly its cycle set.
  if (capped || cycles.cycles.size() > in_.max_cycles) {
    ++stats_.full_fallbacks;
    if (!cycles.truncated) {
      ++stats_.whole_graph_reruns;
      cycles = elementary_cycles(adj, in_.max_cycles);
    }
  }
  Input in = in_;
  in.routing = &routing;
  // Free the previous report first: a truncated one holds max_cycles
  // named cycles, and two at once would double the peak footprint.
  report_ = Report{};
  report_ = detail::finish_report(in, graph, sccs, std::move(cycles));
  return report_;
}

}  // namespace gfc::analyze
