#include "trace/trace.hpp"

#include <algorithm>
#include <array>

namespace gfc::trace {
namespace {

// Indexed by EventType; order must match categories.hpp.
constexpr std::array<const char*, static_cast<int>(EventType::kNumEventTypes)>
    kTypeNames = {
        "port_enqueue",    "tx_start",         "ingress_enqueue",
        "ingress_dequeue", "drop",             "link_down",
        "link_up",         "wire_lost",        "pause_tx",
        "pause_rx",        "resume_tx",        "resume_rx",
        "credit_tx",       "credit_rx",        "credit_exhausted",
        "stage_tx",        "stage_rx",         "qsample_tx",
        "qsample_rx",      "rate_set",         "wake_arm",
        "wake_cancel",     "wake_fire",        "deadlock_detect",
        "deadlock_recover", "flow_start",      "flow_complete",
        "deliver",          "trigger_originate", "trigger_propagate",
        "trigger_return",  "mech_break",        "analyze_verdict",
};

struct CategoryName {
  Category bit;
  const char* name;
};
constexpr std::array<CategoryName, kNumCategories> kCategoryNames = {{
    {kCatPort, "port"},
    {kCatLink, "link"},
    {kCatPfc, "pfc"},
    {kCatCredit, "credit"},
    {kCatGfc, "gfc"},
    {kCatSched, "sched"},
    {kCatDeadlock, "deadlock"},
    {kCatFlow, "flow"},
    {kCatMech, "mech"},
    {kCatAnalyze, "analyze"},
}};

}  // namespace

FlightWindow flight_window(const TraceBuffer& ring, std::size_t per_node) {
  // Newest to oldest: an event is in its node's window while fewer than
  // `per_node` later events of that node have been kept.
  FlightWindow out;
  std::vector<std::size_t> kept;  // indexed by node id, lazily grown
  for (std::size_t k = 1; k <= ring.size(); ++k) {
    const TraceEvent& e = ring[ring.size() - k];
    if (e.node < 0) continue;
    const auto node = static_cast<std::size_t>(e.node);
    if (node >= kept.size()) kept.resize(node + 1, 0);
    if (kept[node] >= per_node) continue;
    ++kept[node];
    out.events.push_back(e);
  }
  out.node_count = static_cast<std::int32_t>(kept.size());
  // Back to ring order, then a stable (t, node) sort: equal keys belong to
  // one node and keep their ring order.
  std::reverse(out.events.begin(), out.events.end());
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.node < b.node;
                   });
  return out;
}

const char* type_name(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kTypeNames.size() ? kTypeNames[i] : "unknown";
}

const char* category_name(Category c) {
  for (const auto& e : kCategoryNames)
    if (e.bit == c) return e.name;
  return "unknown";
}

std::uint32_t parse_categories(const std::string& spec, std::string* error) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string name = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (name.empty()) continue;
    if (name == "all") {
      mask |= kCatAll;
      continue;
    }
    bool found = false;
    for (const auto& e : kCategoryNames) {
      if (name == e.name) {
        mask |= e.bit;
        found = true;
        break;
      }
    }
    if (!found) {
      if (error) *error = "unknown trace category: " + name;
      return 0;
    }
  }
  return mask;
}

bool type_from_name(const std::string& name, EventType* out) {
  for (std::size_t i = 0; i < kTypeNames.size(); ++i) {
    if (name == kTypeNames[i]) {
      *out = static_cast<EventType>(i);
      return true;
    }
  }
  return false;
}

}  // namespace gfc::trace
