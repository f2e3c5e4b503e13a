// Binary event tracing: a preallocated ring buffer of fixed-size records.
// Per-node flight-recorder windows are a query over that ring.
//
// Design constraints (this instruments the per-packet hot paths; see
// BM_TraceOff/BM_TraceOn in bench/microbench.cpp):
//  * With tracing disabled, every instrumentation site costs exactly one
//    predictable branch: `Network::trace_event` tests a pointer that is
//    null unless a Tracer was installed. No arguments are materialized
//    beyond what the caller already has in registers.
//  * With tracing enabled, `Tracer::record` is a constexpr-foldable
//    category-mask test followed by one 32-byte store into the ring, which
//    never allocates after construction. No formatting, no strings, no
//    clock reads (the simulation clock is passed in). Ring capacities round
//    up to powers of two so indexing is a mask, not a 64-bit modulo.
//  * The ring is the only store. Post-mortem views (flight_window, the
//    exporters) read it after the fact, off the hot path.
//  * One Tracer per Network/simulation: experiment campaigns run many
//    sims concurrently, so there is deliberately no global state here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/categories.hpp"

namespace gfc::trace {

/// One trace record. 32 bytes, POD, fixed layout — the ring is just an
/// array of these and exports walk it without any per-event allocation.
struct TraceEvent {
  sim::TimePs t = 0;        // simulation timestamp (ps)
  std::int64_t value = 0;   // payload: queue bytes, stage, rate bps, ...
  std::uint64_t id = 0;     // packet id or flow id (event-type dependent)
  std::int32_t node = -1;   // owning node
  std::int16_t port = -1;   // port index on `node` (-1 = node-level event)
  std::int8_t prio = -1;    // priority class (-1 = not priority-scoped)
  std::uint8_t type = 0;    // EventType

  EventType event_type() const { return static_cast<EventType>(type); }
  Category category() const { return category_of(event_type()); }
  bool operator==(const TraceEvent&) const = default;
};
static_assert(sizeof(TraceEvent) == 32, "trace records must stay 32 bytes");

/// Fixed-capacity overwriting ring of TraceEvents (flight-recorder
/// semantics: when full, the oldest record is replaced). Capacity rounds
/// up to a power of two so the hot-path index is a mask, not a modulo.
/// The backing store is deliberately left uninitialized: every readable
/// cell (index < size()) is written by push first, and skipping the
/// value-init avoids faulting + zeroing megabytes per Tracer — rings
/// default to 32 MB and campaigns build one per simulation.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity)
      : cap_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
        mask_(cap_ - 1),
        buf_(static_cast<TraceEvent*>(
            ::operator new(cap_ * sizeof(TraceEvent)))) {}

  void push(const TraceEvent& e) {
    // Placement-new: cells start as raw storage (see class comment); for
    // this trivially-copyable type it compiles to a plain 32-byte store.
    ::new (&buf_[static_cast<std::size_t>(total_) & mask_]) TraceEvent(e);
    ++total_;
  }

  std::size_t capacity() const { return cap_; }
  /// Events ever pushed (>= size() once the ring has wrapped).
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > cap_ ? total_ - cap_ : 0;
  }
  std::size_t size() const {
    return total_ < cap_ ? static_cast<std::size_t>(total_) : cap_;
  }

  /// i-th retained event in chronological (push) order, 0 = oldest.
  const TraceEvent& operator[](std::size_t i) const {
    const std::uint64_t first = total_ - size();
    return buf_[static_cast<std::size_t>(first + i) & mask_];
  }

 private:
  struct OpDelete {
    void operator()(TraceEvent* p) const { ::operator delete(p); }
  };

  std::size_t cap_;
  std::size_t mask_;
  std::unique_ptr<TraceEvent[], OpDelete> buf_;
  std::uint64_t total_ = 0;
};

/// Events per node in a flight-recorder dump.
inline constexpr std::size_t kFlightWindow = 256;

/// The flight-recorder view of a ring: each node's last `per_node` retained
/// events. On deadlock detection (or any post-mortem) it holds the
/// pre-stall event sequence for each node — the forensic evidence a
/// verdict-only detector cannot give.
struct FlightWindow {
  /// Highest node id in the ring + 1 (node-less events do not count).
  std::int32_t node_count = 0;
  /// Ordered by (t, node); equal keys keep ring order, so the view is
  /// deterministic for deterministic runs. Node-less events are left out.
  std::vector<TraceEvent> events;
};
FlightWindow flight_window(const TraceBuffer& ring,
                           std::size_t per_node = kFlightWindow);

/// Runtime trace configuration, carried by runner::ScenarioConfig and
/// populated from the --trace / --trace-categories / --trace-out CLI.
struct TraceOptions {
  bool enabled = false;
  std::uint32_t categories = kCatAll;
  /// Ring capacity in events (32 B each; rounds up to a power of two).
  /// The ring overwrites, so this bounds memory, not run length.
  std::size_t capacity = 1u << 20;
};

class Tracer {
 public:
  explicit Tracer(const TraceOptions& opts)
      : mask_(opts.categories), ring_(opts.capacity) {}

  bool enabled(Category c) const { return (mask_ & c) != 0; }

  /// Hot-path record. The mask test folds to a compile-time-known bit for
  /// literal `type` arguments; a masked-off category costs the test only.
  void record(EventType type, sim::TimePs t, std::int32_t node,
              std::int32_t port, std::int32_t prio, std::uint64_t id,
              std::int64_t value) {
    if ((mask_ & category_of(type)) == 0) return;
    TraceEvent e;
    e.t = t;
    e.value = value;
    e.id = id;
    e.node = node;
    e.port = static_cast<std::int16_t>(port);
    e.prio = static_cast<std::int8_t>(prio);
    e.type = static_cast<std::uint8_t>(type);
    ring_.push(e);
  }

  const TraceBuffer& buffer() const { return ring_; }

 private:
  std::uint32_t mask_;
  TraceBuffer ring_;
};

/// Parse "pfc,port,sched" (or "all") into a category mask; unknown names
/// are reported via *error (when non-null) and yield 0.
std::uint32_t parse_categories(const std::string& spec,
                               std::string* error = nullptr);

/// Inverse of parse_categories for a mask: "port,link,..." or "all".
std::string categories_to_string(std::uint32_t mask);

/// Inverse of type_name; false for unrecognized names (CSV re-import).
bool type_from_name(const std::string& name, EventType* out);

}  // namespace gfc::trace
