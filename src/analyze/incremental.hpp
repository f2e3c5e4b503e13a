// Fault-aware incremental re-analysis.
//
// A link flap (src/fault) followed by a routing recompute invalidates the
// pre-flight verdict. Each update() rebuilds the buffer-dependency graph
// with the same closure analyze() runs (add_routing_closure): a switch-
// link failure reroutes around it, which changes every class's column,
// so a closure kept per class would almost never be reused. What does
// recur is the shape of the graph's cyclic parts, and that is cached:
//
//  Per-SCC cycle caching. Elementary cycles never cross SCC boundaries,
//  so each cyclic SCC is enumerated alone and the result cached under the
//  SCC's canonical shape (member links sorted, edges as positions in that
//  order). A recurring shape — the common case when a flap rewires one
//  corner of a fat tree — reuses its cycle set.
//
// Every update() ends in the same detail::finish_report() seam analyze()
// uses, so the produced Report (and its JSON) is byte-identical to a
// from-scratch analyze() on the current topology + routing — the
// invariant the randomized flap differential test
// (tests/incremental_test.cpp) enforces. When a per-SCC enumeration
// truncates, or the union exceeds max_cycles, the report must hold the
// capped whole-graph enumeration instead. If the graph has exactly one
// cyclic SCC, that SCC's own run already is it (see elementary_cycles);
// otherwise the analyzer re-runs Johnson once on the identical
// adjacency. Either way the equivalence holds by construction.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"

namespace gfc::analyze {

class IncrementalAnalyzer {
 public:
  struct Stats {
    std::size_t updates = 0;
    // Destination classes closed: every update closes all of them, so
    // dst_reused (no closure is reused) stays 0. perfbench reads both.
    std::size_t dst_recomputed = 0;
    std::size_t dst_reused = 0;
    std::size_t scc_enumerations = 0;  // Johnson runs on one SCC
    std::size_t scc_reused = 0;        // cycle set served from cache
    std::size_t full_fallbacks = 0;    // report is the capped whole-graph set
    std::size_t whole_graph_reruns = 0;  // ... that needed a second Johnson run
  };

  /// `in.topo` must outlive the analyzer; its *current* link state is
  /// read on every update(). `in.routing` may be null — each update()
  /// names the routing explicitly.
  explicit IncrementalAnalyzer(Input in) : in_(std::move(in)) {}

  /// Re-analyze the topology's current state under `routing`. The result
  /// is byte-identical to analyze() with the same Input. The reference is
  /// only borrowed for the duration of the call.
  const Report& update(const topo::RoutingTable& routing);

  /// The last update()'s report. Empty-initialized before the first call.
  const Report& report() const { return report_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Canonical, vertex-numbering-independent shape of one cyclic SCC:
  /// its member links ascending, its internal edges as (from, to)
  /// positions in that order.
  struct SccShape {
    std::vector<topo::DirectedLink> members;  // sorted
    std::vector<std::pair<int, int>> edges;   // sorted
    bool operator==(const SccShape&) const = default;
  };
  struct SccCacheEntry {
    SccShape shape;
    /// Every cycle as positions in shape.members, from a complete (never
    /// truncated) enumeration of this SCC.
    std::vector<std::vector<int>> cycles;
  };

  Input in_;
  /// Linear-scanned, FIFO-evicted (insertion order — deterministic).
  std::vector<SccCacheEntry> scc_cache_;
  Report report_;
  Stats stats_;
};

}  // namespace gfc::analyze
