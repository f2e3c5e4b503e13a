// Discrete-event scheduler, engineered for the per-packet hot path.
//
// Two ways to fire a callback later:
//  - One-shot events (schedule_at/schedule_in, cancel(EventId)): the
//    callback is built per event, so its closure can carry per-event state.
//  - Registered timers (register_timer, fire_at, cancel(TimerId)): the
//    callback is built once and fired any number of times; fire_at queues
//    one more firing, and cancel(TimerId) drops every pending one. Wire
//    deliveries, transmit completions, port wakes and CIOQ kicks use them,
//    so a saturated port or link constructs no closure per packet.
//
// Design (this is the hottest code in the repo — see BENCH_microbench.json):
//  - Callbacks live in a slab of pooled, generation-tagged slots with
//    inline small-callback storage (no per-event std::function heap
//    allocation; oversized one-shot callables fall back to one heap thunk).
//    One-shot slots are recycled through a free list, PacketPool-style; a
//    registered timer keeps its slot for the scheduler's lifetime.
//  - The ready queue is a hierarchical timing wheel. Level 0 is 4,096
//    slots of one 2.048 ns tick (2^11 ps), 8.4 us in all, with a 64-word
//    occupancy bitmap and one summary word over it; three 64-slot levels
//    above it step by 2^12, 2^18 and 2^24 ticks. The top level turns once
//    per 2^41 ps (~2.2 s) and wraps, as a hashed timing wheel does: an
//    event further ahead waits in its top-level slot, and each time that
//    slot's turn comes round before the event is due, the cascade links
//    it back into the same slot (one re-link per revolution).
//    Transmit completions, wire arrivals and control deliveries are at
//    most 1.2 us ahead, so they link straight into a level-0 slot: in
//    fat-tree trials 99.6-99.99% of events land in level 0, cascades move
//    0.001-0.15% of them, and a drained slot holds ~2 events at k=8 and
//    ~7 at k=16 (DESIGN.md 5b). Draining a tick moves its slot into
//    a "near" batch of 24-byte POD entries, sorted by (time, seq) and
//    consumed by index. The common pop — the next occupied level-0 slot
//    inside the current 4,096-slot frame — is two bit scans and a list
//    walk. schedule, fire_at and cancel are O(1).
//    Events landing in the tick being drained splice into the sorted
//    unconsumed tail (binary search + vector insert).
//  - Exact ordering is preserved: wheel slots only partition events by
//    tick; every entry carries the global FIFO sequence number, taken where
//    schedule_at or fire_at is called, and events reach execution
//    exclusively through the near batch, which orders by (time, seq).
//    Same-timestamp events therefore fire in schedule order — the
//    determinism discipline every golden output depends on.
//  - Both cancels and the pop-side liveness check compare the entry's
//    generation tag against the slot's — O(1), no hashing. cancel(TimerId)
//    bumps the timer's generation, which stales all its queued firings at
//    once. A cancelled entry stays behind in the wheel or the near batch
//    and is discarded when its position is next visited.
//
// Observable semantics are pinned by tests/sim_test.cpp (SchedulerPinned,
// SchedulerTimer), tests/sim_property_test.cpp (random scripts vs a
// reference model), tests/scheduler_differential_test.cpp +
// tests/scheduler_fuzz.cpp (lock-step against the original heap engine kept
// under tests/) and tests/determinism_test.cpp: events at the same
// timestamp fire in schedule order, which keeps runs deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace gfc::sim {

/// Handle to a scheduled event; pass to Scheduler::cancel(). Encodes
/// (generation << 32) | (slot index + 1); value 0 is the invalid handle.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Handle to a registered timer (Scheduler::register_timer). Encodes slot
/// index + 1; value 0 is the invalid handle.
struct TimerId {
  std::uint32_t value = 0;
  bool valid() const { return value != 0; }
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Monotonically non-decreasing.
  TimePs now() const { return now_; }

  /// Schedule `fn` at absolute time `t`. A `t` in the past is clamped to
  /// now(): the event fires "immediately", after the currently-executing
  /// event, before any later-stamped event.
  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    using Fn = std::decay_t<F>;
    if (t < now_) t = now_;  // past-dated events fire at now()
    const std::uint32_t idx = alloc_slot();
    Slot& s = *slot_ptr(idx);
    if constexpr (sizeof(Fn) <= kInlineStorage &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      // One indirect call on the fire path: invoke + destroy fused (the
      // destructor call folds away for trivially destructible captures).
      s.run = [](void* p) {
        Fn* f = static_cast<Fn*>(p);
        (*f)();
        f->~Fn();
      };
      if constexpr (std::is_trivially_destructible_v<Fn>)
        s.destroy = nullptr;
      else
        s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // Oversized/overaligned callable: one heap thunk, pointer inline.
      Fn* heap_fn = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage)) Fn*(heap_fn);
      s.run = [](void* p) {
        Fn* f = *static_cast<Fn**>(p);
        (*f)();
        delete f;
      };
      s.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
    queue_call(t, idx, s.gen);
    ++live_;
    return EventId{(static_cast<std::uint64_t>(s.gen) << 32) |
                   (static_cast<std::uint64_t>(idx) + 1)};
  }

  /// Schedule `fn` after `delay` from now.
  template <typename F>
  EventId schedule_in(TimePs delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid id is a no-op; returns whether the event was still pending.
  bool cancel(EventId id);

  /// Register `fn` as a timer: a callback constructed once and fired any
  /// number of times. The callback lives until the scheduler is destroyed.
  /// Returns a handle for fire_at/cancel; never 0.
  template <typename F>
  TimerId register_timer(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t idx = alloc_slot();
    Slot& s = *slot_ptr(idx);
    static_assert(sizeof(Fn) <= kInlineStorage &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "timer callbacks must fit the inline slot storage");
    ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    // Invoke WITHOUT destroying: the callback survives the firing (and may
    // queue further firings of its own timer from inside it).
    s.run = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (std::is_trivially_destructible_v<Fn>)
      s.destroy = nullptr;
    else
      s.destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    s.registered = true;
    return TimerId{idx + 1};
  }

  /// Queue one more firing of `timer` at absolute time `t`, clamped to
  /// now(). Earlier firings stay pending. The firing takes its FIFO
  /// sequence number here, exactly like schedule_at, so moving a call site
  /// from one-shot events to a timer leaves event order unchanged. Any
  /// per-firing payload lives with the caller (wire FIFOs pop one packet
  /// per firing). Legal from inside the timer's own callback.
  void fire_at(TimerId timer, TimePs t);

  /// Drop every pending firing of `timer`; the callback stays registered.
  /// Returns whether any firing was pending.
  bool cancel(TimerId timer);

  /// Run events until the queue empties or `t_end` is passed; events
  /// stamped exactly `t_end` are executed. The clock is left at t_end
  /// (even if the queue empties earlier) unless a callback calls
  /// request_stop(), in which case it stays at the last executed event's
  /// time. run_until into the past (t_end < now()) runs nothing and leaves
  /// the clock untouched.
  void run_until(TimePs t_end);

  /// Run until the queue is empty.
  void run_all();

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Request that run_until/run_all return after the current event.
  void request_stop() { stop_requested_ = true; }

  /// Pending one-shot events plus pending timer firings.
  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

  // --- wheel geometry ----------------------------------------------------
  // Public so tests can aim events at every structural edge. Performance
  // only: execution order never depends on these values.
  static constexpr int kLevels = 4;
  /// Width of one level-0 slot: 2^11 ps = 2.048 ns.
  static constexpr TimePs kTickPs = TimePs{1} << 11;
  /// Reach of levels 0..l: an event less than kLevelSpanPs[l] past the
  /// cursor's tick lands in level l or below. Level 0 spans 4,096 ticks
  /// (8.4 us); level l >= 1 is 64 slots, each as wide as level l-1's span.
  static constexpr TimePs kLevelSpanPs[kLevels] = {
      kTickPs << 12, kTickPs << 18, kTickPs << 24, kTickPs << 30};
  static constexpr TimePs kLevel0SpanPs = kLevelSpanPs[0];
  /// One revolution of the top level, 2^41 ps (~2.2 s). An event further
  /// ahead waits in its top-level slot and is linked back into it once per
  /// revolution until it is due.
  static constexpr TimePs kHorizonPs = kLevelSpanPs[kLevels - 1];

 private:
  /// Inline storage for event callbacks. Sized for the repo's captures
  /// (this + a couple of words); a copied std::function (32 B on
  /// libstdc++) still fits.
  static constexpr std::size_t kInlineStorage = 48;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  // --- timing-wheel geometry (internal) ------------------------------------
  static constexpr int kTickShift = 11;
  static constexpr int kL0Bits = 12;
  static constexpr std::uint32_t kL0Slots = 1u << kL0Bits;  // 4,096
  static constexpr std::uint32_t kL0Mask = kL0Slots - 1;
  static constexpr std::uint32_t kL0Words = kL0Slots / 64;  // bitmap words
  static constexpr int kLevelBits = 6;
  static constexpr int kUpperLevels = kLevels - 1;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;  // 64
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
  /// Tick shift of an upper level's slot width (level 1..3: 12, 18, 24).
  static constexpr int level_shift(int level) {
    return kL0Bits + kLevelBits * (level - 1);
  }
  static_assert(kTickPs == TimePs{1} << kTickShift);
  static_assert(kLevel0SpanPs == kTickPs << kL0Bits);
  static_assert(kLevelSpanPs[1] == kLevel0SpanPs << kLevelBits);
  static_assert(kLevelSpanPs[2] == kLevelSpanPs[1] << kLevelBits);
  static_assert(kHorizonPs == kLevelSpanPs[2] << kLevelBits);

  using Tick = std::int64_t;
  static Tick tick_of(TimePs t) { return t >> kTickShift; }

  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineStorage];
    void (*run)(void*);      // invoke the callback, then destroy it
    void (*destroy)(void*);  // destroy only (cancel path); nullptr if trivial
    // Generation tag; bumped when a one-shot event fires or is cancelled
    // and when a timer is cancelled, which invalidates outstanding EventIds
    // and stale queue entries in O(1). Never 0, so a forged/zero EventId
    // can't match. (A tag wraps only after 2^32 reuses of one slot while a
    // stale handle survives — beyond any simulation length we run.)
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFreeSlot;
    // Registered-timer slots: the callback outlives each firing, the slot
    // never enters the free list, and `pending` counts queued firings.
    bool registered = false;
    std::uint32_t pending = 0;
  };

  /// POD near-batch entry (an event at or below the cursor tick); `seq` is
  /// the global FIFO tiebreaker.
  struct NearEntry {
    TimePs t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Pooled wheel-slot list node (singly linked, newest first; the near
  /// batch re-establishes (t, seq) order at drain time).
  struct WheelNode {
    TimePs t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint32_t next;
  };

  Slot* slot_ptr(std::uint32_t idx) {
    return &chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t idx, Slot& s);

  /// Queue a firing of `slot` at time `t` under the next FIFO sequence
  /// number.
  void queue_call(TimePs t, std::uint32_t slot, std::uint32_t gen) {
    insert_entry(t, next_seq_++, slot, gen);
  }

  /// Route a pending entry to the near batch (tick <= cursor) or a wheel
  /// slot.
  void insert_entry(TimePs t, std::uint64_t seq, std::uint32_t slot,
                    std::uint32_t gen);
  /// Take a node from the pool and fill it.
  std::uint32_t new_node(TimePs t, std::uint64_t seq, std::uint32_t slot,
                         std::uint32_t gen, std::uint32_t next);
  void l0_link(std::uint32_t wslot, TimePs t, std::uint64_t seq,
               std::uint32_t slot, std::uint32_t gen);
  void up_link(int level, std::uint32_t wslot, TimePs t, std::uint64_t seq,
               std::uint32_t slot, std::uint32_t gen);
  /// First occupied level-0 slot in [from, kL0Slots), or kL0Slots if none.
  std::uint32_t l0_next(std::uint32_t from) const;
  /// Empty level-0 slot `wslot` into the near batch (live entries only).
  void l0_drain(std::uint32_t wslot);

  /// Advance the cursor to the earliest occupied wheel position, if its
  /// tick is <= `limit`: cascade upper-level slots starting there, drain
  /// its level-0 slot into the near batch and sort the batch. A tick that yields no live entry is passed over
  /// for the next one. Returns false when no live entry is pending at or
  /// below `limit`.
  bool advance_once(Tick limit);
  /// advance_once's full candidate scan (a frame wrap or a cascade): move
  /// the cursor, cascade the upper-level slots starting there, and name the
  /// level-0 slot due at the new cursor tick in `*l0_slot` (kL0Slots if
  /// none). False, cursor untouched, when nothing is due by
  /// `limit`.
  bool advance_slow(Tick limit, std::uint32_t* l0_slot);

  /// Reset and refill the near batch from the wheel; every entry
  /// it takes is live. False when empty. Only legal once the previous
  /// batch is fully consumed.
  bool refill_near();

  /// Earliest still-live pending entry without consuming it (stale entries
  /// at the consume index are skipped on the way). False when nothing is
  /// pending.
  bool peek_live(NearEntry* out);

  /// Run the live event in `e`'s slot (generation already verified).
  void execute(const NearEntry& e);

  // Slab of stable-address slot chunks plus an intrusive free list.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t slots_used_ = 0;  // high-water mark of allocated slots

  // Timing wheel + near batch (see geometry above).
  std::uint64_t l0_summary_ = 0;           // bit w: l0_occ_[w] != 0
  std::uint64_t up_occ_[kUpperLevels] = {};  // levels 1..3 occupancy
  Tick cur_tick_ = 0;                      // wheel cursor
  std::vector<WheelNode> nodes_;           // wheel node pool
  std::uint32_t node_free_ = kNoNode;
  std::vector<NearEntry> near_;  // sorted batch, (t, seq) order
  std::size_t near_idx_ = 0;     // consume cursor into near_

  std::uint64_t next_seq_ = 0;

  TimePs now_ = 0;
  std::size_t live_ = 0;  // queued, not yet fired or cancelled
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;

  // Slot heads and the level-0 bitmap, last so the scalars above share
  // cache lines. A head is valid only while its occupancy bit is set, so
  // neither construction nor destruction touches the unoccupied ones.
  std::uint64_t l0_occ_[kL0Words] = {};                  // level 0 bitmap
  std::uint32_t up_head_[kUpperLevels][kSlotsPerLevel];  // levels 1..3
  std::uint32_t l0_head_[kL0Slots];                      // level 0
};

}  // namespace gfc::sim
