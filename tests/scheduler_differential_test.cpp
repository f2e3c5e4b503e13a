// Differential test: the production timing-wheel sim::Scheduler vs the
// frozen original heap engine (tests/reference_scheduler.hpp), driven in
// lock-step on randomized adversarial workloads.
//
// Both engines promise the same observable contract — time order,
// same-timestamp FIFO by schedule order, generation-tagged cancel,
// registered timers with any number of pending firings (fired and
// cancelled from their own callbacks too), run_until/step semantics. The
// harness (tests/differential_harness.hpp) applies an identical op script
// to both and asserts the execution traces (callback tag, firing time)
// match exactly, along with now(), pending_events(), and every cancel and
// step result. The script generator lands timestamps on the wheel's
// structural boundaries, read from Scheduler's published geometry: tick
// 0, exact tick edges, the level-0 span +-1 tick, level-promotion
// frontiers, level-0 frame wraps, entries one or more top-level
// revolutions ahead (the top level wraps), and far run_until jumps that
// force multi-level cascades.
//
// tests/scheduler_fuzz.cpp runs the same harness over open-ended seed
// sweeps; this file pins fixed seeds so CI failures reproduce directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "differential_harness.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::sim {
namespace {

using difftest::Fire;
using difftest::Harness;
using difftest::Op;

// 8 seeds x 125k ops = 1e6 randomized ops per run (plus the chained
// events and timer re-arms those ops trigger).
TEST(SchedulerDifferential, MatchesReferenceHeapOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    EXPECT_EQ(difftest::run_differential(seed, 125000), "");
}

// Targeted miniature scripts for the boundary behaviors the random
// workloads cover only probabilistically.

TEST(SchedulerDifferential, SameInstantBurstKeepsFifoOrder) {
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  // 64 events at one instant on a tick boundary, interleaved with cancels
  // (some of stale ids), then a full drain.
  Op burst{Op::kBurst, 64, 0, Scheduler::kTickPs};
  Op cancel{Op::kCancel, 0, 17, 0};
  Op drain{Op::kRunUntil, 0, 0, Scheduler::kTickPs * 8};
  for (const Op& op : {burst, cancel, burst, cancel, drain}) {
    wheel.apply(op);
    ref.apply(op);
  }
  EXPECT_EQ(wheel.log(), ref.log());
  EXPECT_EQ(wheel.results(), ref.results());
}

TEST(SchedulerDifferential, TimerFiringsAcrossWheelLevelsMatch) {
  // One timer with firings pending at once in the near batch, at every
  // wheel level and a revolution ahead, a cancel that drops all of them,
  // then fresh firings — the pattern a broken fire_at (one that stales
  // earlier firings) or cancel(TimerId) gets wrong.
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr const TimePs* kSpan = Scheduler::kLevelSpanPs;
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  std::vector<Op> ops{Op{Op::kRegisterTimer, 0, 0, 0},
                      Op{Op::kRegisterTimer, 0, 0, 0}};
  for (TimePs d : {TimePs{0}, kTick - 1, kSpan[0], kSpan[1], kSpan[2],
                   Scheduler::kHorizonPs})
    ops.push_back(Op{Op::kFireTimer, 2, 0, d});
  ops.push_back(Op{Op::kBurst, 4, 0, 0});
  ops.push_back(Op{Op::kFireTimer, 1, 1, 0});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kSpan[0] * 2});
  ops.push_back(Op{Op::kCancelTimer, 0, 0, 0});
  ops.push_back(Op{Op::kCancelTimer, 0, 0, 0});
  ops.push_back(Op{Op::kFireTimer, 3, 0, kSpan[1]});
  ops.push_back(Op{Op::kRunUntil, 0, 0, Scheduler::kHorizonPs * 2});
  for (const Op& op : ops) {
    wheel.apply(op);
    ref.apply(op);
    ASSERT_EQ(wheel.pending(), ref.pending());
  }
  wheel.drain();
  ref.drain();
  EXPECT_EQ(wheel.log(), ref.log());
  EXPECT_EQ(wheel.results(), ref.results());
  EXPECT_EQ(wheel.now(), ref.now());
}

// Applies `ops` to both engines, then drains them; every observable must
// match.
void expect_same(const std::vector<Op>& ops) {
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  for (const Op& op : ops) {
    wheel.apply(op);
    ref.apply(op);
    ASSERT_EQ(wheel.pending(), ref.pending());
    ASSERT_EQ(wheel.now(), ref.now());
  }
  wheel.drain();
  ref.drain();
  EXPECT_EQ(wheel.log(), ref.log());
  EXPECT_EQ(wheel.results(), ref.results());
  EXPECT_EQ(wheel.now(), ref.now());
}

TEST(SchedulerDifferential, TopLevelWrapsPastTheHorizon) {
  // kHorizonPs is one revolution of the top level; an entry further ahead
  // waits in its top-level slot and is linked back into it each time the
  // slot comes round early. Slot 5 holds entries due this revolution and
  // 1-4 revolutions on (two at one instant), far cancels before and after
  // their re-link, and timer firings 1 and 3 revolutions ahead; run_until
  // jumps and steps then cross revolutions.
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kRev = Scheduler::kHorizonPs;
  constexpr TimePs kSlot = Scheduler::kLevelSpanPs[2];  // top-level slot
  constexpr TimePs kAt = 5 * kSlot;
  std::vector<Op> ops{Op{Op::kSchedule, 0, 0, kAt + 7}};  // id 0: this turn
  for (TimePs k = 1; k <= 4; ++k)  // ids 1-4: k revolutions on
    ops.push_back(Op{Op::kSchedule, 0, 0, kAt + k * kRev + k * kTick});
  ops.push_back(Op{Op::kBurst, 2, 0, kAt + kRev + kTick});  // ids 5-6
  ops.push_back(Op{Op::kSchedule, 0, 0, kAt + kSlot - 1});  // id 7
  ops.push_back(Op{Op::kCancel, 0, 3, 0});  // before its first re-link
  ops.push_back(Op{Op::kRegisterTimer, 0, 0, 0});
  ops.push_back(Op{Op::kFireTimer, 1, 0, kAt + kRev + 11});
  ops.push_back(Op{Op::kFireTimer, 1, 0, kAt + 3 * kRev + 13});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kAt + 100});  // slot 5 cascades
  ops.push_back(Op{Op::kCancel, 0, 2, 0});  // after its first re-link
  // From inside slot 5: one revolution on lands in the cursor's own slot
  // (a full turn ahead), two and a bit beyond it.
  ops.push_back(Op{Op::kSchedule, 0, 0, kRev});
  ops.push_back(Op{Op::kSchedule, 0, 0, 2 * kRev + kTick});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kRev});  // across one revolution
  ops.push_back(Op{Op::kStep, 0, 0, 0});         // through several
  ops.push_back(Op{Op::kStep, 0, 0, 0});
  ops.push_back(Op{Op::kRunUntil, 0, 0, 3 * kRev + kSlot / 2});
  ops.push_back(Op{Op::kSchedule, 0, 0, kSlot});
  ops.push_back(Op{Op::kStep, 0, 0, 0});
  expect_same(ops);
}

TEST(SchedulerDifferential, Level0SpanEdgesMatch) {
  // Events one tick either side of the level-0 span: the last one that
  // links straight into level 0 and the first that waits a cascade.
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
  std::vector<Op> ops;
  for (TimePs d : {kL0 - kTick, kL0 - 1, kL0, kL0 + kTick, kL0 - kTick})
    ops.push_back(Op{Op::kBurst, 2, 0, d});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kL0 - kTick});
  ops.push_back(Op{Op::kBurst, 3, 0, kTick});
  ops.push_back(Op{Op::kRunUntil, 0, 0, 2 * kTick});
  expect_same(ops);
}

TEST(SchedulerDifferential, FrameWrapPastFastPathMatches) {
  // Park the clock two ticks before a level-0 frame boundary, then queue
  // events in the frame's last slot, across the boundary (slots below the
  // cursor's: the next pop wraps the 4,096-slot frame) and one frame on.
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
  std::vector<Op> ops{Op{Op::kRunUntil, 0, 0, 3 * kL0 - 2 * kTick}};
  for (TimePs d : {kTick, 2 * kTick, 3 * kTick, 2 * kTick - 1, kL0 + kTick})
    ops.push_back(Op{Op::kSchedule, 0, 0, d});
  ops.push_back(Op{Op::kFrameEdge, 0, 0, -kTick});
  ops.push_back(Op{Op::kFrameEdge, 0, 0, 0});
  ops.push_back(Op{Op::kStep, 0, 0, 0});
  ops.push_back(Op{Op::kStep, 0, 0, 0});
  ops.push_back(Op{Op::kFrameEdge, 0, 0, kTick});
  ops.push_back(Op{Op::kRunUntil, 0, 0, 4 * kTick});
  expect_same(ops);
}

TEST(SchedulerDifferential, Level0SlotReusedAfterItsBitClears) {
  // A level-0 slot's head is read only while its occupancy bit is set.
  // Fill slot 3, drain it (live and cancelled entries), then reuse the
  // same slot index one frame later, directly and through a cascade.
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
  std::vector<Op> ops{
      Op{Op::kBurst, 3, 0, 3 * kTick},
      Op{Op::kCancel, 0, 1, 0},
      Op{Op::kSchedule, 0, 0, 3 * kTick + 7},
      Op{Op::kRunUntil, 0, 0, 4 * kTick},       // slot 3 drained, bit clear
      Op{Op::kSchedule, 0, 0, kL0 - kTick},     // slot 3 again, level 0
      Op{Op::kSchedule, 0, 0, kL0 - kTick + 1},
      Op{Op::kCancel, 0, 4, 0},
      Op{Op::kRunUntil, 0, 0, kL0},             // drained again
      Op{Op::kSchedule, 0, 0, kL0 - kTick},     // slot 3, one frame on
      Op{Op::kSchedule, 0, 0, 2 * kL0 - kTick},  // slot 3 via level 1
      Op{Op::kStep, 0, 0, 0},
  };
  expect_same(ops);
}

TEST(SchedulerDifferential, CancelEverythingThenReuseMatches) {
  // Drive, cancel every event and timer mid-flight with entries pending at
  // every level and revolutions ahead, then replay a fresh script on the
  // same engines — recycled slots and the stale entries left behind must
  // not change order, results or counts.
  for (std::uint64_t seed : {101ull, 202ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Harness<Scheduler> wheel;
    Harness<testref::ReferenceScheduler> ref;
    for (const Op& op : difftest::make_script(seed, 5000)) {
      wheel.apply(op);
      ref.apply(op);
    }
    wheel.cancel_all();
    ref.cancel_all();
    ASSERT_EQ(wheel.pending(), 0u);
    ASSERT_EQ(ref.pending(), 0u);
    for (const Op& op : difftest::make_script(seed ^ 0xABCDEF, 5000)) {
      wheel.apply(op);
      ref.apply(op);
    }
    wheel.drain();
    ref.drain();
    ASSERT_EQ(wheel.log(), ref.log());
    ASSERT_EQ(wheel.results(), ref.results());
  }
}

}  // namespace
}  // namespace gfc::sim
