#include "trace/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "sim/time.hpp"

namespace gfc::trace {
namespace {

// All numeric output goes through snprintf with integer conversions only:
// no locale, no floating point, byte-identical everywhere.
template <std::size_t N, typename... Args>
void emitf(std::ostream& os, const char (&fmt)[N], Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  os.write(buf, n > 0 ? (n < static_cast<int>(sizeof(buf))
                             ? n
                             : static_cast<int>(sizeof(buf)) - 1)
                      : 0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // names are plain
    out += c;
  }
  return out;
}

/// Microsecond timestamp with full ps precision: "12.000080".
void emit_ts(std::ostream& os, sim::TimePs t) {
  emitf(os, "%" PRId64 ".%06" PRId64, t / sim::kPsPerUs, t % sim::kPsPerUs);
}

std::string display_name(const NodeNameFn& node_name, std::int32_t node) {
  if (node_name) {
    std::string n = node_name(node);
    if (!n.empty()) return n;
  }
  return "node" + std::to_string(node);
}

/// Counter-track events carry a running value; everything else is an
/// instant. Counters render as Perfetto counter tracks, which is what the
/// Fig 5/9/10 queue/rate plots want.
const char* counter_track(EventType t) {
  switch (t) {
    case EventType::kIngressEnqueue:
    case EventType::kIngressDequeue:
      return "ingress_bytes";
    case EventType::kRateSet:
      return "rate_bps";
    default:
      return nullptr;
  }
}

bool split_csv_row(const std::string& line, std::string (&field)[8]) {
  std::size_t pos = 0;
  for (int i = 0; i < 8; ++i) {
    const std::size_t comma = line.find(',', pos);
    const bool last = (i == 7);
    if (last != (comma == std::string::npos)) return false;
    field[i] = line.substr(pos, last ? std::string::npos : comma - pos);
    pos = comma + 1;
  }
  return true;
}

bool parse_i64(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

}  // namespace

void write_chrome_json(std::ostream& os, const TraceBuffer& buf,
                       const NodeNameFn& node_name) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Process-name metadata for every node that appears in the buffer.
  std::int32_t max_node = -1;
  for (std::size_t i = 0; i < buf.size(); ++i)
    if (buf[i].node > max_node) max_node = buf[i].node;
  for (std::int32_t n = 0; n <= max_node; ++n) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":" << n
       << ",\"name\":\"process_name\",\"args\":{\"name\":\""
       << json_escape(display_name(node_name, n)) << "\"}}";
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const TraceEvent& e = buf[i];
    if (!first) os << ",\n";
    first = false;
    const int pid = e.node >= 0 ? e.node : 0;
    const int tid = e.port >= 0 ? e.port : 0;
    if (const char* track = counter_track(e.event_type())) {
      os << "{\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"name\":\"" << track;
      if (e.prio >= 0) os << "_p" << static_cast<int>(e.prio);
      emitf(os, "\",\"args\":{\"value\":%" PRId64 "}}", e.value);
    } else {
      os << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":";
      emit_ts(os, e.t);
      os << ",\"s\":\"t\",\"name\":\"" << type_name(e.event_type())
         << "\",\"cat\":\"" << category_name(e.category());
      emitf(os, "\",\"args\":{\"id\":%" PRIu64 ",\"value\":%" PRId64, e.id,
            e.value);
      if (e.prio >= 0) os << ",\"prio\":" << static_cast<int>(e.prio);
      os << "}}";
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

bool export_chrome_json(const std::string& path, const TraceBuffer& buf,
                        const NodeNameFn& node_name, std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_chrome_json(os, buf, node_name);
  return static_cast<bool>(os);
}

void write_csv(std::ostream& os, const TraceBuffer& buf) {
  os << "# gfc-trace-v1\n";
  os << "t_ps,type,category,node,port,prio,id,value\n";
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const TraceEvent& e = buf[i];
    emitf(os, "%" PRId64 ",%s,%s,%d,%d,%d,%" PRIu64 ",%" PRId64 "\n", e.t,
          type_name(e.event_type()), category_name(e.category()), e.node,
          static_cast<int>(e.port), static_cast<int>(e.prio), e.id, e.value);
  }
}

bool export_csv(const std::string& path, const TraceBuffer& buf,
                std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_csv(os, buf);
  return static_cast<bool>(os);
}

bool parse_csv(std::istream& is, std::vector<TraceEvent>* out,
               std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header && line.rfind("t_ps,", 0) == 0) {
      saw_header = true;
      continue;
    }
    std::string f[8];
    std::int64_t t, node, port, prio, id, value;
    EventType type;
    if (!split_csv_row(line, f) || !parse_i64(f[0], &t) ||
        !type_from_name(f[1], &type) || !parse_i64(f[3], &node) ||
        !parse_i64(f[4], &port) || !parse_i64(f[5], &prio) ||
        !parse_i64(f[6], &id) || !parse_i64(f[7], &value)) {
      if (error)
        *error = "malformed trace CSV at line " + std::to_string(lineno);
      return false;
    }
    TraceEvent e;
    e.t = t;
    e.value = value;
    e.id = static_cast<std::uint64_t>(id);
    e.node = static_cast<std::int32_t>(node);
    e.port = static_cast<std::int16_t>(port);
    e.prio = static_cast<std::int8_t>(prio);
    e.type = static_cast<std::uint8_t>(type);
    out->push_back(e);
  }
  return true;
}

bool parse_csv_file(const std::string& path, std::vector<TraceEvent>* out,
                    std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  return parse_csv(is, out, error);
}

void write_flight_dump(std::ostream& os, const TraceBuffer& ring,
                       const NodeNameFn& node_name, const std::string& reason) {
  os << "# gfc-flight-v1\n";
  if (!reason.empty()) {
    // Prefix every reason line so the dump stays greppable line-by-line.
    std::size_t pos = 0;
    while (pos < reason.size()) {
      std::size_t nl = reason.find('\n', pos);
      if (nl == std::string::npos) nl = reason.size();
      os << "# reason: " << reason.substr(pos, nl - pos) << "\n";
      pos = nl + 1;
    }
  }
  const FlightWindow fw = flight_window(ring);
  os << "# nodes: " << fw.node_count << " window: " << kFlightWindow
     << " events/node\n";
  for (const TraceEvent& e : fw.events) {
    emitf(os, "t_ps=%" PRId64 " node=%d", e.t, e.node);
    os << "(" << display_name(node_name, e.node) << ")";
    emitf(os, " port=%d prio=%d %s id=%" PRIu64 " value=%" PRId64 "\n",
          static_cast<int>(e.port), static_cast<int>(e.prio),
          type_name(e.event_type()), e.id, e.value);
  }
}

bool dump_flight(const std::string& path, const TraceBuffer& ring,
                 const NodeNameFn& node_name, const std::string& reason,
                 std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_flight_dump(os, ring, node_name, reason);
  return static_cast<bool>(os);
}

}  // namespace gfc::trace
