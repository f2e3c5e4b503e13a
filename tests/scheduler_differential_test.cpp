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
// structural boundaries: tick 0, exact bucket edges, level-promotion
// frontiers, the 64^4-tick horizon (overflow heap), and far run_until
// jumps that force multi-level cascades.
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
  Op burst{Op::kBurst, 64, 0, TimePs{1} << 17};
  Op cancel{Op::kCancel, 0, 17, 0};
  Op drain{Op::kRunUntil, 0, 0, TimePs{1} << 20};
  for (const Op& op : {burst, cancel, burst, cancel, drain}) {
    wheel.apply(op);
    ref.apply(op);
  }
  EXPECT_EQ(wheel.log(), ref.log());
  EXPECT_EQ(wheel.results(), ref.results());
}

TEST(SchedulerDifferential, OverflowPromotionAcrossHorizon) {
  constexpr TimePs kHorizonPs = TimePs{1} << (17 + 24);
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  // Events beyond the horizon, then run_until jumps that promote them
  // into the wheel and eventually fire them.
  std::vector<Op> ops;
  for (int i = 0; i < 32; ++i)
    ops.push_back(Op{Op::kSchedule, 0, 0,
                     kHorizonPs + static_cast<TimePs>(i) * (TimePs{1} << 19)});
  for (int i = 0; i < 8; ++i)
    ops.push_back(Op{Op::kRunUntil, 0, 0, kHorizonPs / 4});
  for (const Op& op : ops) {
    wheel.apply(op);
    ref.apply(op);
  }
  EXPECT_EQ(wheel.log(), ref.log());
  EXPECT_EQ(wheel.now(), ref.now());
  EXPECT_EQ(wheel.pending(), ref.pending());
}

TEST(SchedulerDifferential, TimerFiringsAcrossWheelLevelsMatch) {
  // One timer with firings pending at once in the near batch, at every
  // wheel level and past the horizon, a cancel that drops all of them,
  // then fresh firings — the pattern a broken fire_at (one that stales
  // earlier firings) or cancel(TimerId) gets wrong.
  constexpr TimePs kTick = TimePs{1} << 17;
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  std::vector<Op> ops{Op{Op::kRegisterTimer, 0, 0, 0},
                      Op{Op::kRegisterTimer, 0, 0, 0}};
  for (TimePs d : {TimePs{0}, kTick - 1, kTick << 6, kTick << 12,
                   kTick << 18, kTick << 24})
    ops.push_back(Op{Op::kFireTimer, 2, 0, d});
  ops.push_back(Op{Op::kBurst, 4, 0, 0});
  ops.push_back(Op{Op::kFireTimer, 1, 1, 0});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kTick << 7});
  ops.push_back(Op{Op::kCancelTimer, 0, 0, 0});
  ops.push_back(Op{Op::kCancelTimer, 0, 0, 0});
  ops.push_back(Op{Op::kFireTimer, 3, 0, kTick << 12});
  ops.push_back(Op{Op::kRunUntil, 0, 0, kTick << 25});
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

TEST(SchedulerDifferential, CancelEverythingThenReuseMatches) {
  // Drive, cancel every event and timer mid-flight with entries pending at
  // every level and in overflow, then replay a fresh script on the same
  // engines — recycled slots and the stale entries left behind must not
  // change order, results or counts.
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
