// Unit tests for the discrete-event engine: clock math, scheduler ordering,
// cancellation, determinism, RNG.
#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(ms(1), 1'000 * us(1));
  EXPECT_EQ(seconds(1), 1'000 * ms(1));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_us(us(7.25)), 7.25);
}

TEST(Time, TxTimeExactAtCommonRates) {
  // 1500 B at 10 Gb/s = 1.2 us.
  EXPECT_EQ(tx_time(gbps(10), 1500), us(1.2));
  // one byte at 100 Gb/s = 80 ps exactly.
  EXPECT_EQ(tx_time(gbps(100), 1), 80);
  // 64 B control frame at 40 Gb/s = 12.8 ns.
  EXPECT_EQ(tx_time(gbps(40), 64), static_cast<TimePs>(12.8 * kPsPerNs));
}

TEST(Time, TxTimeRoundsUpNeverFaster) {
  const Rate r = bps(3);  // pathological rate
  const TimePs t = tx_time(r, 1);
  // 8 bits at 3 bps = 2.666... s; must round up to the next picosecond.
  EXPECT_GE(t, seconds(8.0 / 3.0));
  EXPECT_LE(t - seconds(8.0 / 3.0), 1);
}

TEST(Time, ZeroRateNeverTransmits) {
  EXPECT_EQ(tx_time(Rate{0}, 100), kTimeNever);
}

TEST(Time, RateBytesIn) {
  EXPECT_EQ(gbps(10).bytes_in(us(1)), 1250);
  EXPECT_EQ(gbps(10).bytes_in(0), 0);
}

TEST(Time, RateScaling) {
  EXPECT_EQ((gbps(10) / 2.0).bps, gbps(5).bps);
  EXPECT_EQ((gbps(10) * 0.5).bps, gbps(5).bps);
  EXPECT_LT(kbps(8), mbps(1));
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(us(1.5)), "1.500us");
  EXPECT_EQ(format_rate(gbps(5)), "5.000Gbps");
  EXPECT_EQ(format_time(kTimeNever), "never");
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(us(3), [&] { order.push_back(3); });
  sched.schedule_at(us(1), [&] { order.push_back(1); });
  sched.schedule_at(us(2), [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), us(3));
}

TEST(Scheduler, FifoAtSameTimestamp) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sched.schedule_at(us(5), [&order, i] { order.push_back(i); });
  sched.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, RunUntilIncludesBoundaryAndAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(us(10), [&] { ++fired; });
  sched.schedule_at(us(11), [&] { ++fired; });
  sched.run_until(us(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), us(10));
  sched.run_until(us(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), us(20));  // clock advances to the horizon
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  const EventId id = sched.schedule_at(us(1), [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // double-cancel is a no-op
  sched.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
  EXPECT_FALSE(sched.cancel(EventId{12345}));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_in(us(1), recurse);
  };
  sched.schedule_in(us(1), recurse);
  sched.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), us(5));
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(us(1), [&] { ++fired; });
  sched.schedule_at(us(2), [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, StepSkipsCancelled) {
  Scheduler sched;
  int fired = 0;
  const EventId a = sched.schedule_at(us(1), [&] { ++fired; });
  sched.schedule_at(us(2), [&] { fired += 10; });
  sched.cancel(a);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, RequestStopHaltsRun) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(us(1), [&] {
    ++fired;
    sched.request_stop();
  });
  sched.schedule_at(us(2), [&] { ++fired; });
  sched.run_until(us(10));
  EXPECT_EQ(fired, 1);
  sched.run_until(us(10));  // resumes after a stop
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PendingAndExecutedCounts) {
  Scheduler sched;
  const EventId a = sched.schedule_at(us(1), [] {});
  sched.schedule_at(us(2), [] {});
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run_all();
  EXPECT_EQ(sched.executed_events(), 1u);
}

// --- Pinned engine semantics -----------------------------------------------
// These tests freeze the observable contract of the scheduler so the engine
// can be rewritten for speed without behavior drift. They were written and
// passing against the pre-rewrite std::function/unordered_set engine and must
// pass unchanged against any successor.

TEST(SchedulerPinned, SameTimestampFifoSurvivesInterleavedCancels) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i)
    ids.push_back(sched.schedule_at(us(1), [&order, i] { order.push_back(i); }));
  // Cancel every third event; the survivors must still fire in schedule order.
  for (int i = 0; i < 16; i += 3) EXPECT_TRUE(sched.cancel(ids[static_cast<size_t>(i)]));
  sched.run_all();
  std::vector<int> expect;
  for (int i = 0; i < 16; ++i)
    if (i % 3 != 0) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(SchedulerPinned, EventScheduledAtCurrentTimestampFiresAfterExistingOnes) {
  // An event scheduled *during* timestamp t at timestamp t gets a higher id
  // than everything already queued at t, so it fires last within t.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(us(1), [&] {
    order.push_back(0);
    sched.schedule_at(us(1), [&] { order.push_back(9); });
  });
  sched.schedule_at(us(1), [&] { order.push_back(1); });
  sched.schedule_at(us(1), [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(sched.now(), us(1));
}

TEST(SchedulerPinned, CancelOfFiredIdReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(us(1), [] {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(id));  // already fired: clean no-op
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerPinned, CancelOfNeverIssuedOrDefaultIdReturnsFalse) {
  Scheduler sched;
  sched.schedule_at(us(1), [] {});
  EXPECT_FALSE(sched.cancel(EventId{}));            // default/invalid
  EXPECT_FALSE(sched.cancel(EventId{0xDEADBEEF}));  // never issued
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(SchedulerPinned, CancelFromInsideOwnCallbackReturnsFalse) {
  Scheduler sched;
  bool cancel_result = true;
  EventId self{};
  self = sched.schedule_at(us(1), [&] { cancel_result = sched.cancel(self); });
  sched.run_all();
  EXPECT_FALSE(cancel_result);  // the event is no longer pending while it runs
}

TEST(SchedulerPinned, PendingEventsAccountingWithCancellations) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(sched.schedule_at(us(i + 1), [] {}));
  EXPECT_EQ(sched.pending_events(), 8u);
  EXPECT_TRUE(sched.cancel(ids[2]));
  EXPECT_TRUE(sched.cancel(ids[5]));
  EXPECT_EQ(sched.pending_events(), 6u);
  EXPECT_FALSE(sched.cancel(ids[2]));  // double-cancel does not double-count
  EXPECT_EQ(sched.pending_events(), 6u);
  EXPECT_TRUE(sched.step());  // fires event 0
  EXPECT_EQ(sched.pending_events(), 5u);
  EXPECT_FALSE(sched.cancel(ids[0]));  // fired id: count must not move
  EXPECT_EQ(sched.pending_events(), 5u);
  sched.run_all();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 6u);
}

TEST(SchedulerPinned, RunUntilClockSemantics) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(us(3), [&] { ++fired; });
  // Queue empties before the horizon: clock still advances to t_end.
  sched.run_until(us(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), us(10));
  // Horizon in the past: nothing runs, clock untouched.
  sched.run_until(us(5));
  EXPECT_EQ(sched.now(), us(10));
  // Empty queue: clock advances to the new horizon.
  sched.run_until(us(12));
  EXPECT_EQ(sched.now(), us(12));
}

TEST(SchedulerPinned, RunUntilStoppedLeavesClockAtLastEvent) {
  Scheduler sched;
  sched.schedule_at(us(2), [&] { sched.request_stop(); });
  sched.schedule_at(us(4), [] {});
  sched.run_until(us(10));
  // Stopped mid-run: now() stays at the last executed event, not t_end.
  EXPECT_EQ(sched.now(), us(2));
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(SchedulerPinned, RequestStopReturnsAfterCurrentEventOnly) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(us(1), [&] {
    order.push_back(1);
    sched.request_stop();
    // Same-timestamp successor must NOT run in this pass.
  });
  sched.schedule_at(us(1), [&] { order.push_back(2); });
  sched.schedule_at(us(2), [&] { order.push_back(3); });
  sched.run_until(us(10));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.run_all();  // a fresh run clears the stop flag and drains the rest
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerPinned, RequestStopHaltsRunAll) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(us(1), [&] {
    ++fired;
    sched.request_stop();
  });
  sched.schedule_at(us(2), [&] { ++fired; });
  sched.run_all();
  EXPECT_EQ(fired, 1);
  sched.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerPinned, ScheduleInThePastClampsToNow) {
  Scheduler sched;
  sched.schedule_at(us(5), [] {});
  sched.run_until(us(5));
  ASSERT_EQ(sched.now(), us(5));
  std::vector<int> order;
  sched.schedule_at(us(1), [&] { order.push_back(1); });  // past: clamps to 5us
  sched.schedule_at(us(5), [&] { order.push_back(2); });
  sched.schedule_at(us(6), [&] { order.push_back(3); });
  sched.run_all();
  // The clamped event keeps its schedule-order position at now().
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), us(6));
}

TEST(SchedulerPinned, ScheduleInPastFromCallbackFiresSameTimestamp) {
  Scheduler sched;
  std::vector<TimePs> stamps;
  sched.schedule_at(us(4), [&] {
    // delay "before now" from inside a callback clamps to the current time.
    sched.schedule_at(us(1), [&] { stamps.push_back(sched.now()); });
  });
  sched.run_all();
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], us(4));
}

TEST(SchedulerPinned, StepReturnsFalseWhenOnlyCancelledEventsRemain) {
  Scheduler sched;
  const EventId a = sched.schedule_at(us(1), [] {});
  const EventId b = sched.schedule_at(us(2), [] {});
  sched.cancel(a);
  sched.cancel(b);
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.executed_events(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerPinned, ExecutedEventsCountsOnlyRealFirings) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(sched.schedule_at(us(1), [] {}));
  for (int i = 0; i < 10; i += 2) sched.cancel(ids[static_cast<size_t>(i)]);
  sched.run_all();
  EXPECT_EQ(sched.executed_events(), 5u);
}

TEST(SchedulerTimer, FiringsInterleaveWithEventsInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  const TimerId t = sched.register_timer([&] { order.push_back(0); });
  sched.schedule_at(us(1), [&] { order.push_back(1); });
  sched.fire_at(t, us(1));
  sched.schedule_at(us(1), [&] { order.push_back(2); });
  sched.fire_at(t, us(1));
  sched.fire_at(t, us(0));  // earlier instant, queued last
  EXPECT_EQ(sched.pending_events(), 5u);
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2, 0}));
  EXPECT_EQ(sched.executed_events(), 5u);
}

TEST(SchedulerTimer, FireFromOwnCallback) {
  Scheduler sched;
  std::vector<TimePs> stamps;
  TimerId t;
  t = sched.register_timer([&] {
    stamps.push_back(sched.now());
    if (stamps.size() < 3) sched.fire_at(t, sched.now() + us(1));
  });
  sched.fire_at(t, us(1));
  sched.run_all();
  EXPECT_EQ(stamps, (std::vector<TimePs>{us(1), us(2), us(3)}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerTimer, CancelDropsEveryPendingFiring) {
  Scheduler sched;
  int fired = 0;
  const TimerId t = sched.register_timer([&fired] { ++fired; });
  sched.fire_at(t, us(1));
  sched.fire_at(t, us(5));
  sched.fire_at(t, ms(5000));  // past two top-level revolutions
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_TRUE(sched.cancel(t));
  EXPECT_FALSE(sched.cancel(t));  // nothing left to drop
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run_all();
  EXPECT_EQ(fired, 0);
  // The callback stays registered: a later firing runs.
  sched.fire_at(t, sched.now() + us(1));
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.cancel(TimerId{}));
}

TEST(SchedulerTimer, CancelFromOwnCallbackDropsTheOthers) {
  Scheduler sched;
  int fired = 0;
  TimerId t;
  t = sched.register_timer([&] {
    ++fired;
    EXPECT_TRUE(sched.cancel(t));  // the us(2) and us(3) firings
  });
  sched.fire_at(t, us(1));
  sched.fire_at(t, us(2));
  sched.fire_at(t, us(3));
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(2);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.5);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(3);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace gfc::sim
