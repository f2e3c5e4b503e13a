#include "analyze/cycles.hpp"

#include <algorithm>

namespace gfc::analyze {

namespace {

// Iterative Tarjan: explicit DFS frames so deep dependency graphs (one
// vertex per directed link) can't overflow the call stack.
struct TarjanState {
  const Adjacency* adj;
  std::vector<int> index, lowlink;
  std::vector<char> on_stack;
  std::vector<int> stack;
  std::vector<std::vector<int>> components;
  int next_index = 0;

  explicit TarjanState(const Adjacency& a)
      : adj(&a),
        index(a.size(), -1),
        lowlink(a.size(), 0),
        on_stack(a.size(), 0) {}

  void run(int root) {
    struct Frame {
      int v;
      std::size_t next_edge;
    };
    std::vector<Frame> frames{{root, 0}};
    enter(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& out = (*adj)[static_cast<std::size_t>(f.v)];
      if (f.next_edge < out.size()) {
        const int w = out[f.next_edge++];
        if (index[static_cast<std::size_t>(w)] < 0) {
          enter(w);
          frames.push_back({w, 0});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          lowlink[static_cast<std::size_t>(f.v)] =
              std::min(lowlink[static_cast<std::size_t>(f.v)],
                       index[static_cast<std::size_t>(w)]);
        }
      } else {
        const int v = f.v;
        if (lowlink[static_cast<std::size_t>(v)] ==
            index[static_cast<std::size_t>(v)]) {
          std::vector<int> comp;
          for (;;) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = 0;
            comp.push_back(w);
            if (w == v) break;
          }
          std::sort(comp.begin(), comp.end());
          components.push_back(std::move(comp));
        }
        frames.pop_back();
        if (!frames.empty()) {
          const int parent = frames.back().v;
          lowlink[static_cast<std::size_t>(parent)] =
              std::min(lowlink[static_cast<std::size_t>(parent)],
                       lowlink[static_cast<std::size_t>(v)]);
        }
      }
    }
  }

  void enter(int v) {
    index[static_cast<std::size_t>(v)] = next_index;
    lowlink[static_cast<std::size_t>(v)] = next_index;
    ++next_index;
    on_stack[static_cast<std::size_t>(v)] = 1;
    stack.push_back(v);
  }
};

// Johnson's CIRCUIT procedure over one SCC's adjacency, rooted at the
// component's smallest vertex `s`. Recursive: depth is bounded by the
// SCC size (one vertex per directed link, a few thousand at k = 16).
struct JohnsonState {
  const Adjacency* adj;  // restricted to the current SCC
  int s = 0;
  std::vector<char> blocked;
  std::vector<std::vector<int>> block_map;  // B sets
  std::vector<int> path;
  std::vector<std::vector<int>>* cycles;
  std::size_t max_cycles;
  bool truncated = false;

  bool circuit(int v) {
    if (truncated) return false;
    bool found = false;
    path.push_back(v);
    blocked[static_cast<std::size_t>(v)] = 1;
    for (const int w : (*adj)[static_cast<std::size_t>(v)]) {
      if (truncated) break;
      if (w == s) {
        if (cycles->size() >= max_cycles) {
          truncated = true;
          break;
        }
        cycles->push_back(path);
        found = true;
      } else if (!blocked[static_cast<std::size_t>(w)]) {
        if (circuit(w)) found = true;
      }
    }
    if (found) {
      unblock(v);
    } else {
      for (const int w : (*adj)[static_cast<std::size_t>(v)]) {
        auto& b = block_map[static_cast<std::size_t>(w)];
        if (std::find(b.begin(), b.end(), v) == b.end()) b.push_back(v);
      }
    }
    path.pop_back();
    return found;
  }

  void unblock(int v) {
    blocked[static_cast<std::size_t>(v)] = 0;
    std::vector<int> pending;
    pending.swap(block_map[static_cast<std::size_t>(v)]);
    for (const int w : pending)
      if (blocked[static_cast<std::size_t>(w)]) unblock(w);
  }
};

}  // namespace

std::vector<std::vector<int>> strongly_connected_components(
    const Adjacency& adj) {
  TarjanState t(adj);
  for (int v = 0; v < static_cast<int>(adj.size()); ++v)
    if (t.index[static_cast<std::size_t>(v)] < 0) t.run(v);
  std::sort(t.components.begin(), t.components.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  return t.components;
}

bool cyclic_component(const Adjacency& adj, const std::vector<int>& comp) {
  if (comp.size() > 1) return true;
  const auto& out = adj[static_cast<std::size_t>(comp.front())];
  return std::find(out.begin(), out.end(), comp.front()) != out.end();
}

CycleEnumeration elementary_cycles(const Adjacency& adj,
                                   std::size_t max_cycles) {
  CycleEnumeration out;
  const int n = static_cast<int>(adj.size());
  int s = 0;
  while (s < n && !out.truncated) {
    // SCCs of the subgraph induced by vertices >= s.
    Adjacency sub(adj.size());
    for (int v = s; v < n; ++v)
      for (const int w : adj[static_cast<std::size_t>(v)])
        if (w >= s) sub[static_cast<std::size_t>(v)].push_back(w);
    const auto comps = strongly_connected_components(sub);

    // The least vertex that sits in a component containing a cycle (size
    // > 1, or a self-loop) becomes the next Johnson root.
    int root = -1;
    const std::vector<int>* root_comp = nullptr;
    for (const auto& comp : comps) {
      if (comp.front() < s || !cyclic_component(sub, comp)) continue;
      if (root < 0 || comp.front() < root) {
        root = comp.front();
        root_comp = &comp;
      }
    }
    if (root < 0) break;

    // Restrict adjacency to the root's component.
    std::vector<char> in_comp(adj.size(), 0);
    for (const int v : *root_comp) in_comp[static_cast<std::size_t>(v)] = 1;
    Adjacency scc_adj(adj.size());
    for (const int v : *root_comp)
      for (const int w : sub[static_cast<std::size_t>(v)])
        if (in_comp[static_cast<std::size_t>(w)])
          scc_adj[static_cast<std::size_t>(v)].push_back(w);

    JohnsonState js;
    js.adj = &scc_adj;
    js.s = root;
    js.blocked.assign(adj.size(), 0);
    js.block_map.assign(adj.size(), {});
    js.cycles = &out.cycles;
    js.max_cycles = max_cycles;
    js.circuit(root);
    out.truncated = js.truncated;
    s = root + 1;
  }
  return out;
}

}  // namespace gfc::analyze
