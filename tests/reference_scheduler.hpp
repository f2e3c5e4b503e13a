// Reference discrete-event scheduler for differential testing.
//
// This is the pooled 4-ary-min-heap engine that shipped in PR 1 (the
// pre-timing-wheel src/sim/scheduler.{hpp,cpp}), kept verbatim (merged into
// one header, renamed ReferenceScheduler) as the executable specification
// of the scheduler contract: time order, same-timestamp FIFO by schedule
// order, O(1) generation-tagged cancel, run_until/run_all/step semantics.
//
// tests/scheduler_differential_test.cpp and tests/scheduler_fuzz.cpp drive
// this engine and the production sim::Scheduler side-by-side on randomized
// workloads and assert identical execution traces. Keep the semantics here
// frozen; when the production engine's contract changes intentionally,
// change this file in the same commit and say so in the test.
//
// The registered timer (register_timer, fire_at, cancel(TimerId)), added
// after the heap engine, is modelled here with the straightforward heap
// semantics: each firing is one more one-shot event that calls the retained
// callback, and cancelling the timer cancels every such event still
// pending. The differential harness exercises it the same way as events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"  // for sim::EventId and sim::TimePs
#include "sim/time.hpp"

namespace gfc::sim::testref {

class ReferenceScheduler {
 public:
  ReferenceScheduler() = default;
  ~ReferenceScheduler() { destroy_pending(); }
  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  TimePs now() const { return now_; }

  template <typename F>
  EventId schedule_at(TimePs t, F&& fn) {
    using Fn = std::decay_t<F>;
    if (t < now_) t = now_;  // past-dated events fire at now()
    const std::uint32_t idx = alloc_slot();
    Slot& s = *slot_ptr(idx);
    if constexpr (sizeof(Fn) <= kInlineStorage &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
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
      Fn* heap_fn = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage)) Fn*(heap_fn);
      s.run = [](void* p) {
        Fn* f = *static_cast<Fn**>(p);
        (*f)();
        delete f;
      };
      s.destroy = [](void* p) { delete *static_cast<Fn**>(p); };
    }
    push_entry(HeapEntry{t, next_seq_++, idx, s.gen});
    ++live_;
    return EventId{(static_cast<std::uint64_t>(s.gen) << 32) |
                   (static_cast<std::uint64_t>(idx) + 1)};
  }

  template <typename F>
  EventId schedule_in(TimePs delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  bool cancel(EventId id) {
    Slot* s = lookup(id);
    if (s == nullptr) return false;
    if (s->destroy != nullptr) s->destroy(s->storage);
    release_slot(static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu) - 1, *s);
    --live_;
    return true;
  }

  // --- registered timers ---------------------------------------------------

  template <typename F>
  TimerId register_timer(F&& fn) {
    timers_.push_back(Timer{std::function<void()>(std::forward<F>(fn)), {}});
    return TimerId{static_cast<std::uint32_t>(timers_.size())};
  }

  void fire_at(TimerId timer, TimePs t) {
    const std::size_t i = timer.value - 1;
    // The deque never relocates elements, so invoking timers_[i].fn while
    // the callback registers further timers is safe.
    timers_[i].pending.push_back(schedule_at(t, [this, i] {
      // This firing's id went stale when it started executing.
      std::erase_if(timers_[i].pending,
                    [this](EventId id) { return lookup(id) == nullptr; });
      timers_[i].fn();
    }));
  }

  bool cancel(TimerId timer) {
    std::vector<EventId>& pending = timers_[timer.value - 1].pending;
    if (pending.empty()) return false;
    for (EventId id : pending) cancel(id);
    pending.clear();
    return true;
  }

  void run_until(TimePs t_end) {
    stop_requested_ = false;
    while (!heap_.empty() && !stop_requested_) {
      const TimePs t = heap_.front().t;
      if (t > t_end) break;
      do {
        const HeapEntry e = pop_top();
        if (slot_ptr(e.slot)->gen != e.gen) continue;  // cancelled
        now_ = t;
        execute(e);
      } while (!stop_requested_ && !heap_.empty() && heap_.front().t == t);
    }
    if (now_ < t_end && !stop_requested_) now_ = t_end;
  }

  void run_all() {
    stop_requested_ = false;
    while (!heap_.empty() && !stop_requested_) {
      const TimePs t = heap_.front().t;
      do {
        const HeapEntry e = pop_top();
        if (slot_ptr(e.slot)->gen != e.gen) continue;
        now_ = t;
        execute(e);
      } while (!stop_requested_ && !heap_.empty() && heap_.front().t == t);
    }
  }

  bool step() {
    while (!heap_.empty()) {
      const HeapEntry e = pop_top();
      if (slot_ptr(e.slot)->gen != e.gen) continue;  // cancelled
      now_ = e.t;
      execute(e);
      return true;
    }
    return false;
  }

  void request_stop() { stop_requested_ = true; }

  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  static constexpr std::size_t kInlineStorage = 48;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  struct Slot {
    alignas(std::max_align_t) std::byte storage[kInlineStorage];
    void (*run)(void*);
    void (*destroy)(void*);
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFreeSlot;
  };

  struct HeapEntry {
    TimePs t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  Slot* slot_ptr(std::uint32_t idx) {
    return &chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  /// Slot for a still-pending id, nullptr otherwise.
  Slot* lookup(EventId id) {
    if (!id.valid()) return nullptr;
    const std::uint32_t low = static_cast<std::uint32_t>(id.value);
    if (low == 0 || low > slots_used_) return nullptr;
    Slot* s = slot_ptr(low - 1);
    return s->gen == static_cast<std::uint32_t>(id.value >> 32) ? s : nullptr;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot_ptr(idx)->next_free;
      return idx;
    }
    if (slots_used_ == chunks_.size() * kSlotsPerChunk)
      chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    return slots_used_++;
  }

  void release_slot(std::uint32_t idx, Slot& s) {
    if (++s.gen == 0) s.gen = 1;
    s.next_free = free_head_;
    free_head_ = idx;
  }

  void push_entry(HeapEntry e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  HeapEntry pop_top() {
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n != 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = (i << 2) + 1;
        if (first_child >= n) break;
        std::size_t min_child = first_child;
        const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
        for (std::size_t c = first_child + 1; c < end; ++c)
          if (earlier(heap_[c], heap_[min_child])) min_child = c;
        if (!earlier(heap_[min_child], last)) break;
        heap_[i] = heap_[min_child];
        i = min_child;
      }
      heap_[i] = last;
    }
    return top;
  }

  void execute(const HeapEntry& e) {
    Slot& s = *slot_ptr(e.slot);
    ++executed_;
    --live_;
    if (++s.gen == 0) s.gen = 1;
    s.run(s.storage);
    s.next_free = free_head_;
    free_head_ = e.slot;
  }

  void destroy_pending() {
    for (const HeapEntry& e : heap_) {
      Slot& s = *slot_ptr(e.slot);
      if (s.gen == e.gen && s.destroy != nullptr) s.destroy(s.storage);
    }
  }

  struct Timer {
    std::function<void()> fn;
    std::vector<EventId> pending;  // queued firings
  };

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::deque<Timer> timers_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t slots_used_ = 0;

  std::vector<HeapEntry> heap_;
  std::uint64_t next_seq_ = 0;

  TimePs now_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace gfc::sim::testref
