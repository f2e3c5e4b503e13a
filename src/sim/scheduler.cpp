#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace gfc::sim {
namespace {

// Execution order: time, then the FIFO sequence number.
template <typename E>
bool earlier(const E& a, const E& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

}  // namespace

Scheduler::Scheduler() = default;

Scheduler::~Scheduler() {
  // Destroy the callbacks of still-pending one-shot events wherever their
  // queue entry lives (cancelled entries fail the generation check and were
  // already destroyed at cancel time), then every timer's callback.
  const auto destroy_ref = [this](std::uint32_t slot, std::uint32_t gen) {
    Slot& s = *slot_ptr(slot);
    if (!s.registered && s.gen == gen && s.destroy != nullptr)
      s.destroy(s.storage);
  };
  const auto destroy_list = [&](std::uint32_t head) {
    for (std::uint32_t n = head; n != kNoNode; n = nodes_[n].next)
      destroy_ref(nodes_[n].slot, nodes_[n].gen);
  };
  for (std::size_t i = near_idx_; i < near_.size(); ++i)
    destroy_ref(near_[i].slot, near_[i].gen);
  for (std::uint32_t w = 0; w < kL0Words; ++w)
    for (std::uint64_t bits = l0_occ_[w]; bits != 0; bits &= bits - 1)
      destroy_list(l0_head_[(w << 6) | std::countr_zero(bits)]);
  for (int u = 0; u < kUpperLevels; ++u)
    for (std::uint64_t bits = up_occ_[u]; bits != 0; bits &= bits - 1)
      destroy_list(up_head_[u][std::countr_zero(bits)]);
  for (std::uint32_t i = 0; i < slots_used_; ++i) {
    Slot& s = *slot_ptr(i);
    if (s.registered && s.destroy != nullptr) s.destroy(s.storage);
  }
}

std::uint32_t Scheduler::alloc_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot_ptr(idx)->next_free;
    return idx;
  }
  if (slots_used_ == chunks_.size() * kSlotsPerChunk)
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  return slots_used_++;
}

void Scheduler::release_slot(std::uint32_t idx, Slot& s) {
  if (++s.gen == 0) s.gen = 1;  // invalidate ids; tag is never 0
  s.next_free = free_head_;
  free_head_ = idx;
}

inline std::uint32_t Scheduler::new_node(TimePs t, std::uint64_t seq,
                                         std::uint32_t slot, std::uint32_t gen,
                                         std::uint32_t next) {
  std::uint32_t n;
  if (node_free_ != kNoNode) {
    n = node_free_;
    node_free_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(WheelNode{});
  }
  nodes_[n] = WheelNode{t, seq, slot, gen, next};
  return n;
}

inline void Scheduler::l0_link(std::uint32_t wslot, TimePs t,
                               std::uint64_t seq, std::uint32_t slot,
                               std::uint32_t gen) {
  const std::uint32_t w = wslot >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (wslot & 63);
  const std::uint32_t next =
      (l0_occ_[w] & bit) != 0 ? l0_head_[wslot] : kNoNode;
  l0_head_[wslot] = new_node(t, seq, slot, gen, next);
  l0_occ_[w] |= bit;
  l0_summary_ |= std::uint64_t{1} << w;
}

void Scheduler::up_link(int level, std::uint32_t wslot, TimePs t,
                        std::uint64_t seq, std::uint32_t slot,
                        std::uint32_t gen) {
  const int u = level - 1;
  const std::uint64_t bit = std::uint64_t{1} << wslot;
  const std::uint32_t next =
      (up_occ_[u] & bit) != 0 ? up_head_[u][wslot] : kNoNode;
  up_head_[u][wslot] = new_node(t, seq, slot, gen, next);
  up_occ_[u] |= bit;
}

void Scheduler::insert_entry(TimePs t, std::uint64_t seq, std::uint32_t slot,
                             std::uint32_t gen) {
  const Tick tick = tick_of(t);
  const std::int64_t delta = tick - cur_tick_;
  if (delta <= 0) {
    // At or behind the cursor: splice into the sorted unconsumed tail of
    // the near batch. Only execution-time inserts (events landing in the
    // tick being drained) take this path — advance_once() appends its
    // drains directly and orders them once.
    const NearEntry e{t, seq, slot, gen};
    const auto pos = std::upper_bound(
        near_.begin() + static_cast<std::ptrdiff_t>(near_idx_), near_.end(), e,
        earlier<NearEntry>);
    near_.insert(pos, e);
    return;
  }
  if (delta < static_cast<std::int64_t>(kL0Slots)) {
    // Inside level 0's 4,096-tick window: slot = tick mod 4,096 names the
    // tick uniquely, whichever frame it falls in.
    l0_link(static_cast<std::uint32_t>(tick) & kL0Mask, t, seq, slot, gen);
    return;
  }
  // Level l >= 1 holds deltas in [2^(6l+6), 2^(6l+12)): 12 bits for level
  // 0, then one 6-bit group per level. The top level also takes every
  // delta past its reach; its slot then comes round again before the
  // entry is due, and the cascade there links it back into the same slot.
  const int width =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(delta)));
  const int level = std::min((width - 1 - kL0Bits) / kLevelBits + 1,
                             kUpperLevels);
  const std::uint32_t wslot =
      static_cast<std::uint32_t>(tick >> level_shift(level)) & kSlotMask;
  up_link(level, wslot, t, seq, slot, gen);
}

inline std::uint32_t Scheduler::l0_next(std::uint32_t from) const {
  if (from >= kL0Slots) return kL0Slots;
  // Occupied words from w on, lowest first: word w counts only from `from`,
  // and its earlier bits are next frame's slots.
  const std::uint32_t w = from >> 6;
  std::uint64_t words = l0_summary_ & (~std::uint64_t{0} << w);
  while (words != 0) {
    const std::uint32_t v = static_cast<std::uint32_t>(std::countr_zero(words));
    std::uint64_t bits = l0_occ_[v];
    if (v == w) bits &= ~std::uint64_t{0} << (from & 63);
    if (bits != 0)
      return (v << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
    words &= words - 1;
  }
  return kL0Slots;
}

inline void Scheduler::l0_drain(std::uint32_t wslot) {
  const std::uint32_t w = wslot >> 6;
  l0_occ_[w] &= ~(std::uint64_t{1} << (wslot & 63));
  if (l0_occ_[w] == 0) l0_summary_ &= ~(std::uint64_t{1} << w);
  std::uint32_t n = l0_head_[wslot];
  while (n != kNoNode) {
    WheelNode& node = nodes_[n];
    const std::uint32_t next = node.next;
    if (slot_ptr(node.slot)->gen == node.gen)
      near_.push_back(NearEntry{node.t, node.seq, node.slot, node.gen});
    node.next = node_free_;
    node_free_ = n;
    n = next;
  }
}

bool Scheduler::advance_once(Tick limit) {
  const std::size_t base = near_.size();
  // A tick whose entries were all cancelled adds nothing: move on to the
  // next one here rather than in the caller.
  do {
    // Fast path, the packet engine's common case: an occupied level-0
    // slot later in the cursor's 4,096-slot frame (no wrap) is the
    // earliest work anywhere, because an upper-level slot can only cascade
    // at a later frame boundary. No per-level scan, no cascade.
    const std::uint32_t pos = static_cast<std::uint32_t>(cur_tick_) & kL0Mask;
    std::uint32_t l0_slot = l0_next(pos + 1);
    if (l0_slot < kL0Slots) {
      const Tick target = cur_tick_ + (l0_slot - pos);
      if (target > limit) return false;
      cur_tick_ = target;
    }
    if (l0_slot == kL0Slots && !advance_slow(limit, &l0_slot)) return false;
    if (l0_slot < kL0Slots) l0_drain(l0_slot);
  } while (near_.size() == base);
  if (near_.size() - base > 1)
    std::sort(near_.begin() + static_cast<std::ptrdiff_t>(base), near_.end(),
              [](const NearEntry& a, const NearEntry& b) {
                return earlier(a, b);
              });
  return true;
}

bool Scheduler::advance_slow(Tick limit, std::uint32_t* l0_slot) {
  const std::uint32_t pos = static_cast<std::uint32_t>(cur_tick_) & kL0Mask;
  // Per level, the nearest occupied slot ahead of the cursor. Level 0
  // searches its bitmap cyclically from the slot after the cursor
  // (distance 1..4,096). For an upper level, all frames start strictly
  // after cur_tick_, so rotating the occupancy word right by pos+1 makes
  // countr_zero() yield distance-1, distances 1..64 (a slot equal to the
  // cursor position means a full level cycle ahead).
  Tick target = -1;
  Tick l0_start = -1;
  std::uint32_t l0_next_slot = 0;
  if (l0_summary_ != 0) {
    l0_next_slot = l0_next(pos + 1);
    if (l0_next_slot == kL0Slots) l0_next_slot = l0_next(0);
    l0_start = cur_tick_ + (((l0_next_slot - pos - 1) & kL0Mask) + 1);
    target = l0_start;
  }
  Tick up_start[kUpperLevels];
  std::uint32_t up_slot[kUpperLevels];
  for (int u = 0; u < kUpperLevels; ++u) {
    up_start[u] = -1;
    if (up_occ_[u] == 0) continue;
    const int shift = level_shift(u + 1);
    const std::uint32_t p =
        static_cast<std::uint32_t>(cur_tick_ >> shift) & kSlotMask;
    const std::uint64_t rotated = std::rotr(up_occ_[u], (p + 1) & 63);
    const int d = std::countr_zero(rotated) + 1;  // 1..64
    up_start[u] = ((cur_tick_ >> shift) + d) << shift;
    up_slot[u] = (p + static_cast<std::uint32_t>(d)) & kSlotMask;
    if (target < 0 || up_start[u] < target) target = up_start[u];
  }
  if (target < 0 || target > limit) return false;
  cur_tick_ = target;

  // Cascade every upper-level slot whose frame starts here, highest level
  // first, so entries land in their final lower-level homes (or the near
  // batch for the target tick itself); a top-level entry due a later
  // revolution goes back into the slot it came from. Stale nodes are
  // dropped and recycled on the way.
  for (int u = kUpperLevels - 1; u >= 0; --u) {
    if (up_start[u] != target) continue;
    std::uint32_t n = up_head_[u][up_slot[u]];
    up_occ_[u] &= ~(std::uint64_t{1} << up_slot[u]);
    while (n != kNoNode) {
      const WheelNode node = nodes_[n];
      nodes_[n].next = node_free_;
      node_free_ = n;
      if (slot_ptr(node.slot)->gen == node.gen) {
        if (tick_of(node.t) == target)
          near_.push_back(NearEntry{node.t, node.seq, node.slot, node.gen});
        else
          insert_entry(node.t, node.seq, node.slot, node.gen);
      }
      n = node.next;
    }
  }
  *l0_slot = l0_start == target ? l0_next_slot : kL0Slots;
  return true;
}

bool Scheduler::refill_near() {
  near_.clear();  // everything before near_idx_ was consumed; keep capacity
  near_idx_ = 0;
  while (near_.empty())
    if (!advance_once(std::numeric_limits<Tick>::max())) return false;
  return true;
}

bool Scheduler::peek_live(NearEntry* out) {
  for (;;) {
    if (near_idx_ >= near_.size()) {
      if (!refill_near()) return false;
      *out = near_[0];  // a refill takes live entries only
      return true;
    }
    const NearEntry& top = near_[near_idx_];
    if (slot_ptr(top.slot)->gen == top.gen) {
      *out = top;
      return true;
    }
    ++near_idx_;  // cancelled; skip lazily
  }
}

void Scheduler::execute(const NearEntry& e) {
  Slot& s = *slot_ptr(e.slot);
  ++executed_;
  --live_;
  if (s.registered) {
    // The callback survives its firing, and the generation must keep
    // matching the timer's other queued firings.
    --s.pending;
    s.run(s.storage);
    return;
  }
  // Invalidate the id before invoking, so cancel() of the running event
  // from inside its own callback is a clean "no longer pending" no-op —
  // but keep the slot off the free list until the callback (which may
  // schedule new events into other slots) has finished and been destroyed.
  if (++s.gen == 0) s.gen = 1;
  s.run(s.storage);
  s.next_free = free_head_;
  free_head_ = e.slot;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t low = static_cast<std::uint32_t>(id.value);
  if (low == 0 || low > slots_used_) return false;
  const std::uint32_t idx = low - 1;
  Slot& s = *slot_ptr(idx);
  if (s.gen != static_cast<std::uint32_t>(id.value >> 32)) return false;
  // Still pending: destroy the callback and retire the slot now. The queue
  // entry stays behind; its stale generation tag gets it skipped when its
  // wheel slot or near-batch position is next visited.
  if (s.destroy != nullptr) s.destroy(s.storage);
  release_slot(idx, s);
  --live_;
  return true;
}

void Scheduler::fire_at(TimerId timer, TimePs t) {
  if (!timer.valid()) return;
  Slot& s = *slot_ptr(timer.value - 1);
  if (t < now_) t = now_;  // same clamp as schedule_at
  queue_call(t, timer.value - 1, s.gen);
  ++s.pending;
  ++live_;
}

bool Scheduler::cancel(TimerId timer) {
  if (!timer.valid()) return false;
  Slot& s = *slot_ptr(timer.value - 1);
  if (s.pending == 0) return false;
  // One generation bump stales every queued firing of this timer.
  if (++s.gen == 0) s.gen = 1;
  live_ -= s.pending;
  s.pending = 0;
  return true;
}

bool Scheduler::step() {
  NearEntry e;
  if (!peek_live(&e)) return false;
  ++near_idx_;
  now_ = e.t;
  execute(e);
  return true;
}

void Scheduler::run_until(TimePs t_end) {
  stop_requested_ = false;
  NearEntry e;
  while (!stop_requested_ && peek_live(&e)) {
    if (e.t > t_end) break;
    ++near_idx_;
    now_ = e.t;
    execute(e);
  }
  if (now_ < t_end && !stop_requested_) {
    now_ = t_end;
    // Keep the wheel cursor in step with the clock after an idle jump so
    // short-horizon scheduling stays O(1). Pure performance: correctness
    // never depends on the cursor tracking now() (the near batch orders
    // whatever the sweep dumps; live entries swept here are the
    // same-tick-as-t_end ones with t > t_end).
    const Tick t_tick = tick_of(now_);
    if (t_tick > cur_tick_) {
      while (advance_once(t_tick)) {
      }
      cur_tick_ = t_tick;
    }
  }
}

void Scheduler::run_all() {
  stop_requested_ = false;
  NearEntry e;
  while (!stop_requested_ && peek_live(&e)) {
    ++near_idx_;
    now_ = e.t;
    execute(e);
  }
}

}  // namespace gfc::sim
