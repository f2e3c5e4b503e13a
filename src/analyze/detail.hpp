// The shared back half of analyze() — the seam the incremental analyzer
// plugs into.
//
// Both analyze() and IncrementalAnalyzer build the buffer-dependency
// graph with the one routing closure (add_routing_closure). analyze()
// then runs Johnson's enumeration on the whole graph; IncrementalAnalyzer
// reuses per-SCC cycle sets. Both hand the assembled graph, its SCCs and
// its cycles to finish_report(), which fills *everything else* in the
// Report (header, tau, graph/SCC stats, canonical cycle list with
// per-cycle flow coverage, bound checks, routing lints). Because the two
// paths share this single exit, their reports — and the JSON bytes
// derived from them — are identical by construction; the randomized flap
// differential test in tests/incremental_test.cpp holds the cycle halves
// to the same standard.
#pragma once

#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/cycles.hpp"

namespace gfc::analyze::detail {

/// Fill a complete Report from an assembled buffer-dependency graph, its
/// SCC decomposition and its cycle enumeration. `cycles` holds vertex ids
/// of `graph`, in any order and any rotation: the report lists each cycle
/// once, in canonical form and order (see CycleInfo), which depends only
/// on the cycles' links, never on vertex numbering. Emits the truncation
/// warning on stderr when cycles.truncated (the verdict then degrades to
/// kAtRisk; see Report::verdict).
Report finish_report(const Input& in, const topo::BufferDependencyGraph& graph,
                     const std::vector<std::vector<int>>& sccs,
                     CycleEnumeration cycles);

}  // namespace gfc::analyze::detail
