// The one first-cycle search. A deadlock is a cycle in a dependency
// graph, and three questions ask for one witness: the buffer-dependency
// graph's CBD (BufferDependencyGraph::find_cycle), the runtime detector's
// wait-for cycle over paused ports (stats::DeadlockDetector::cycle_now)
// and the routing-loop lint (analyze::lint_routing). Each keeps its own
// graph and hands this search a successor callback, so none builds a
// second adjacency for it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace gfc::topo {

/// Iterative tri-color DFS over vertices [0, n). Roots are tried in the
/// order `roots` lists them (one already visited is skipped), and the
/// successors of v in the order `succ(v)` lists them: `succ(v)` returns a
/// sized, indexable range of vertex ids, read again at every step, so it
/// must be cheap (a reference or a span). Returns the tree path
/// w ... v of the first back edge v -> w (a self-loop gives {v}), or an
/// empty vector when no cycle is reachable from the roots. A vertex whose
/// range is empty is a sink: it is visited, but never enters a witness.
template <typename Roots, typename Succ>
std::vector<int> first_cycle(std::size_t n, const Roots& roots, Succ&& succ) {
  const auto at = [](int v) { return static_cast<std::size_t>(v); };
  std::vector<char> color(n, 0);  // 0 white, 1 grey, 2 black
  std::vector<int> parent(n, -1);
  std::vector<std::pair<int, std::size_t>> stack;
  for (const auto r : roots) {
    const int root = static_cast<int>(r);
    if (color[at(root)] != 0) continue;
    color[at(root)] = 1;
    stack.assign(1, {root, 0});
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& out = succ(v);
      if (next == out.size()) {
        color[at(v)] = 2;
        stack.pop_back();
        continue;
      }
      const int w = static_cast<int>(out[next++]);
      if (color[at(w)] == 0) {
        color[at(w)] = 1;
        parent[at(w)] = v;
        stack.push_back({w, 0});
      } else if (color[at(w)] == 1) {
        std::vector<int> cycle{v};
        for (int u = v; u != w; u = parent[at(u)]) cycle.push_back(parent[at(u)]);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

}  // namespace gfc::topo
