// Trace exporters: Chrome trace_event JSON (loadable in Perfetto / Chrome
// about:tracing) and a flat CSV time series that regenerates the paper's
// probe data (Figs 5/9/10/18) without bespoke samplers.
//
// Both formats are produced with integer-only arithmetic and fixed-width
// formatting, so a seeded run exports byte-identically across reruns and
// across worker-thread counts.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace gfc::trace {

/// Resolves a node id to its display name (runner::Fabric provides one
/// backed by topo node names). May be empty; ids are printed then.
using NodeNameFn = std::function<std::string(std::int32_t)>;

// --- Chrome trace_event JSON ------------------------------------------------
/// Queue/rate events become counter tracks ("C"), everything else instant
/// events ("i"); nodes map to pids with process_name metadata, ports to tids.
/// `ts` is microseconds with ps precision (integer math, no doubles).
void write_chrome_json(std::ostream& os, const TraceBuffer& buf,
                       const NodeNameFn& node_name);
bool export_chrome_json(const std::string& path, const TraceBuffer& buf,
                        const NodeNameFn& node_name,
                        std::string* error = nullptr);

// --- CSV time series --------------------------------------------------------
/// Header "# gfc-trace-v1" then `t_ps,type,category,node,port,prio,id,value`.
void write_csv(std::ostream& os, const TraceBuffer& buf);
bool export_csv(const std::string& path, const TraceBuffer& buf,
                std::string* error = nullptr);

/// Re-import a write_csv stream. Returns false (and sets *error) on any
/// malformed line; used by the round-trip tests and offline analysis.
bool parse_csv(std::istream& is, std::vector<TraceEvent>* out,
               std::string* error = nullptr);
bool parse_csv_file(const std::string& path, std::vector<TraceEvent>* out,
                    std::string* error = nullptr);

// --- Flight-recorder dump ---------------------------------------------------
/// Human-readable post-mortem of the ring's flight_window: one line per
/// event, each node's last kFlightWindow merged in time order, preceded by
/// `reason` (e.g. the detector's witness cycle description).
void write_flight_dump(std::ostream& os, const TraceBuffer& ring,
                       const NodeNameFn& node_name, const std::string& reason);
bool dump_flight(const std::string& path, const TraceBuffer& ring,
                 const NodeNameFn& node_name, const std::string& reason,
                 std::string* error = nullptr);

}  // namespace gfc::trace
