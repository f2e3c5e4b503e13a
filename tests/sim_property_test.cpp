// Property test for the event engine: a seeded random script of
// schedule / cancel / step / run_until operations (including reentrant
// scheduling, cancellation and stop requests from inside callbacks) is
// interpreted twice — once against sim::Scheduler and once against a naive
// sorted-vector reference model implementing the documented semantics —
// and the two execution traces must be identical.
//
// The script format and reference model are deliberately engine-agnostic
// (this test was written and passing against the pre-rewrite
// std::function/unordered_set scheduler); only the boundary delays read
// the production wheel's published geometry, to aim at its edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::sim {
namespace {

// What a callback does when it fires. Parameters are fixed at schedule
// time; serial-relative targets are resolved at fire time identically by
// both interpreters.
enum class Action : std::uint8_t {
  kNone,
  kScheduleSameT,   // schedule a kNone child at the current timestamp
  kScheduleLater,   // schedule a kNone child at now + param
  kCancelDerived,   // cancel serial (self*7+3) % issued-so-far
  kRequestStop,
};

struct ScheduledSpec {
  Action action;
  TimePs param = 0;
};

// Top-level script operations.
enum class Op : std::uint8_t {
  kSchedule,
  kCancel,
  kMove,  // move a pending event to now + delay (fresh FIFO order)
  kStep,
  kRunUntil,
  kRunAll,
};

struct ScriptOp {
  Op op;
  TimePs delay = 0;     // kSchedule: offset from now; kRunUntil: horizon offset
  ScheduledSpec spec{};  // kSchedule
  std::uint64_t target_pick = 0;  // kCancel/kMove: pick mod issued
};

// Delays that land on the engine's structural boundaries, read from its
// published wheel geometry: tick edges and off-by-ones, the level-0 span
// +-1 tick, the upper-level frontiers, and offsets one or more top-level
// revolutions ahead (entries the top level wraps past).
// The reference model ignores them — to it they are just delays.
TimePs boundary_delay(Rng& rng) {
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
  constexpr TimePs kHorizon = Scheduler::kHorizonPs;
  switch (rng.uniform_int(0, 10)) {
    case 0: return kTick - 1;
    case 1: return kTick;
    case 2: return kTick + 1;
    case 3: return kL0 - kTick;
    case 4: return kL0;
    case 5: return kL0 + kTick;
    case 6: return Scheduler::kLevelSpanPs[1];
    case 7: return Scheduler::kLevelSpanPs[2];
    case 8: return kHorizon - kTick;
    case 9: return kHorizon;  // one revolution ahead: the top level wraps
    default: return kHorizon * rng.uniform_int(1, 4);  // several revolutions
  }
}

// Trace entries are (tag, value) pairs; any divergence in firing order,
// cancel results, clock values or counters shows up as a trace mismatch.
enum Tag : int {
  kFire = 1,
  kFireAt,
  kCancelResult,
  kStepResult,
  kNow,
  kPending,
  kExecuted,
};
using Trace = std::vector<std::pair<int, long long>>;

std::vector<ScriptOp> make_script(Rng& rng, int n_ops) {
  std::vector<ScriptOp> script;
  script.reserve(static_cast<std::size_t>(n_ops));
  for (int i = 0; i < n_ops; ++i) {
    // Occasionally emit a dense churn block: schedules, cancels and
    // moves all pinned to one instant (often a bucket boundary) —
    // the worst case for same-timestamp FIFO bookkeeping.
    if (rng.uniform_int(0, 39) == 0) {
      const TimePs d = rng.uniform_int(0, 1) == 0 ? boundary_delay(rng)
                                                  : rng.uniform_int(0, 3) * 100;
      const auto burst = rng.uniform_int(6, 14);
      for (std::int64_t b = 0; b < burst && i < n_ops; ++b, ++i) {
        ScriptOp s;
        const auto r = rng.uniform_int(0, 9);
        if (r <= 4) {
          s.op = Op::kSchedule;
          s.delay = d;
          s.spec.action = Action::kNone;
        } else if (r <= 6) {
          s.op = Op::kCancel;
          s.target_pick =
              static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
        } else {
          s.op = Op::kMove;
          s.delay = d;
          s.target_pick =
              static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
        }
        script.push_back(s);
      }
      continue;
    }
    ScriptOp s;
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 40) {
      s.op = Op::kSchedule;
      // Cluster timestamps: a small delay range forces same-timestamp
      // collisions, which is where FIFO tie-breaking lives. A slice of
      // boundary delays lands events on bucket edges and revolutions ahead.
      s.delay = rng.uniform_int(0, 9) == 0 ? boundary_delay(rng)
                                           : rng.uniform_int(0, 9) * 100;
      const auto a = rng.uniform_int(0, 9);
      if (a <= 4) s.spec.action = Action::kNone;
      else if (a == 5) s.spec.action = Action::kScheduleSameT;
      else if (a <= 7) {
        s.spec.action = Action::kScheduleLater;
        s.spec.param = rng.uniform_int(0, 5) * 100;
      } else if (a == 8) s.spec.action = Action::kCancelDerived;
      else s.spec.action = Action::kRequestStop;
    } else if (roll < 62) {
      s.op = Op::kCancel;
      s.target_pick = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    } else if (roll < 70) {
      s.op = Op::kMove;
      s.delay = rng.uniform_int(0, 7) == 0 ? boundary_delay(rng)
                                           : rng.uniform_int(0, 9) * 100;
      s.target_pick = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    } else if (roll < 83) {
      s.op = Op::kStep;
    } else if (roll < 97) {
      s.op = Op::kRunUntil;
      // Mostly short horizons; sometimes a drain that crosses bucket
      // frontiers or reaches the far-future events in one jump.
      s.delay = rng.uniform_int(0, 7) == 0 ? boundary_delay(rng) * 2
                                           : rng.uniform_int(0, 12) * 100;
    } else {
      s.op = Op::kRunAll;
    }
    script.push_back(s);
  }
  return script;
}

// --- Interpreter over the real engine --------------------------------------

class RealHarness {
 public:
  Trace run(const std::vector<ScriptOp>& script) {
    for (const ScriptOp& s : script) apply(s);
    return trace_;
  }

 private:
  void apply(const ScriptOp& s) {
    switch (s.op) {
      case Op::kSchedule:
        schedule(sched_.now() + s.delay, s.spec);
        break;
      case Op::kCancel:
        if (!ids_.empty()) {
          const std::size_t t = s.target_pick % ids_.size();
          trace_.push_back({kCancelResult, sched_.cancel(ids_[t]) ? 1 : 0});
        }
        break;
      case Op::kMove:
        // A move is cancel + schedule of the same serial's callback.
        if (!ids_.empty()) {
          const std::size_t t = s.target_pick % ids_.size();
          const bool moved = sched_.cancel(ids_[t]);
          trace_.push_back({kCancelResult, moved ? 1 : 0});
          if (moved)
            ids_[t] = sched_.schedule_at(sched_.now() + s.delay,
                                         [this, t] { on_fire(t); });
        }
        break;
      case Op::kStep:
        trace_.push_back({kStepResult, sched_.step() ? 1 : 0});
        break;
      case Op::kRunUntil:
        sched_.run_until(sched_.now() + s.delay);
        break;
      case Op::kRunAll:
        sched_.run_all();
        break;
    }
    trace_.push_back({kNow, static_cast<long long>(sched_.now())});
    trace_.push_back({kPending, static_cast<long long>(sched_.pending_events())});
    trace_.push_back({kExecuted, static_cast<long long>(sched_.executed_events())});
  }

  void schedule(TimePs t, ScheduledSpec spec) {
    const std::uint64_t serial = ids_.size();
    specs_.push_back(spec);
    ids_.push_back(sched_.schedule_at(t, [this, serial] { on_fire(serial); }));
  }

  void on_fire(std::uint64_t serial) {
    trace_.push_back({kFire, static_cast<long long>(serial)});
    trace_.push_back({kFireAt, static_cast<long long>(sched_.now())});
    const ScheduledSpec spec = specs_[serial];
    switch (spec.action) {
      case Action::kNone:
        break;
      case Action::kScheduleSameT:
        schedule(sched_.now(), {Action::kNone, 0});
        break;
      case Action::kScheduleLater:
        schedule(sched_.now() + spec.param, {Action::kNone, 0});
        break;
      case Action::kCancelDerived: {
        const std::size_t t =
            static_cast<std::size_t>((serial * 7 + 3) % ids_.size());
        trace_.push_back({kCancelResult, sched_.cancel(ids_[t]) ? 1 : 0});
        break;
      }
      case Action::kRequestStop:
        sched_.request_stop();
        break;
    }
  }

  Scheduler sched_;
  std::vector<EventId> ids_;
  std::vector<ScheduledSpec> specs_;
  Trace trace_;
};

// --- Reference model: naive sorted-vector implementation --------------------

class ModelHarness {
 public:
  Trace run(const std::vector<ScriptOp>& script) {
    for (const ScriptOp& s : script) apply(s);
    return trace_;
  }

 private:
  struct Ev {
    TimePs t;
    std::uint64_t serial;  // identity (cancel target, trace tag)
    std::uint64_t order;   // FIFO tie-break; bumped by a move
  };

  void apply(const ScriptOp& s) {
    switch (s.op) {
      case Op::kSchedule:
        schedule(now_ + s.delay, s.spec);
        break;
      case Op::kCancel:
        if (!specs_.empty()) {
          const std::uint64_t t = s.target_pick % specs_.size();
          trace_.push_back({kCancelResult, cancel(t) ? 1 : 0});
        }
        break;
      case Op::kMove:
        if (!specs_.empty()) {
          const std::uint64_t t = s.target_pick % specs_.size();
          trace_.push_back({kCancelResult, move_event(t, now_ + s.delay) ? 1 : 0});
        }
        break;
      case Op::kStep:
        trace_.push_back({kStepResult, step() ? 1 : 0});
        break;
      case Op::kRunUntil:
        run_until(now_ + s.delay);
        break;
      case Op::kRunAll:
        run_all();
        break;
    }
    trace_.push_back({kNow, static_cast<long long>(now_)});
    trace_.push_back({kPending, static_cast<long long>(pending_.size())});
    trace_.push_back({kExecuted, static_cast<long long>(executed_)});
  }

  void schedule(TimePs t, ScheduledSpec spec) {
    if (t < now_) t = now_;  // documented clamp
    const std::uint64_t serial = specs_.size();
    specs_.push_back(spec);
    pending_.push_back(Ev{t, serial, next_order_++});
  }

  bool cancel(std::uint64_t serial) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].serial == serial) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // A move is cancel + schedule at `t`: the moved event goes behind
  // existing same-timestamp events (fresh FIFO order), and moving a
  // fired/cancelled event fails.
  bool move_event(std::uint64_t serial, TimePs t) {
    for (Ev& ev : pending_) {
      if (ev.serial == serial) {
        ev.t = t < now_ ? now_ : t;
        ev.order = next_order_++;
        return true;
      }
    }
    return false;
  }

  // Index of the earliest (t, order) pending event, or npos.
  std::size_t min_index() const {
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (best == static_cast<std::size_t>(-1) ||
          pending_[i].t < pending_[best].t ||
          (pending_[i].t == pending_[best].t &&
           pending_[i].order < pending_[best].order))
        best = i;
    }
    return best;
  }

  bool step() {
    const std::size_t i = min_index();
    if (i == static_cast<std::size_t>(-1)) return false;
    fire(i);
    return true;
  }

  void run_until(TimePs t_end) {
    stop_ = false;
    while (!stop_) {
      const std::size_t i = min_index();
      if (i == static_cast<std::size_t>(-1) || pending_[i].t > t_end) break;
      fire(i);
    }
    if (now_ < t_end && !stop_) now_ = t_end;
  }

  void run_all() {
    stop_ = false;
    while (!stop_) {
      const std::size_t i = min_index();
      if (i == static_cast<std::size_t>(-1)) break;
      fire(i);
    }
  }

  void fire(std::size_t i) {
    const Ev ev = pending_[i];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    now_ = ev.t;
    ++executed_;
    trace_.push_back({kFire, static_cast<long long>(ev.serial)});
    trace_.push_back({kFireAt, static_cast<long long>(now_)});
    const ScheduledSpec spec = specs_[ev.serial];
    switch (spec.action) {
      case Action::kNone:
        break;
      case Action::kScheduleSameT:
        schedule(now_, {Action::kNone, 0});
        break;
      case Action::kScheduleLater:
        schedule(now_ + spec.param, {Action::kNone, 0});
        break;
      case Action::kCancelDerived: {
        const std::uint64_t t = (ev.serial * 7 + 3) % specs_.size();
        trace_.push_back({kCancelResult, cancel(t) ? 1 : 0});
        break;
      }
      case Action::kRequestStop:
        stop_ = true;
        break;
    }
  }

  std::vector<Ev> pending_;
  std::vector<ScheduledSpec> specs_;
  std::uint64_t next_order_ = 0;
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_ = false;
  Trace trace_;
};

class SchedulerVsModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerVsModel, TracesIdentical) {
  Rng rng(GetParam());
  const std::vector<ScriptOp> script = make_script(rng, 400);
  const Trace real = RealHarness().run(script);
  const Trace model = ModelHarness().run(script);
  ASSERT_EQ(real.size(), model.size());
  for (std::size_t i = 0; i < real.size(); ++i)
    ASSERT_EQ(real[i], model[i]) << "trace index " << i << " (seed "
                                 << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerVsModel,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// A drain at the end of every script: whatever state the random ops leave
// behind, running to exhaustion must agree too (catches horizon-dependent
// divergence the random run_until horizons happen to miss).
TEST(SchedulerVsModel, FinalDrainAgrees) {
  for (std::uint64_t seed : {7ull, 99ull, 1234ull}) {
    Rng rng(seed);
    std::vector<ScriptOp> script = make_script(rng, 300);
    script.push_back(ScriptOp{Op::kRunAll, 0, {}, 0});
    script.push_back(ScriptOp{Op::kRunAll, 0, {}, 0});
    const Trace real = RealHarness().run(script);
    const Trace model = ModelHarness().run(script);
    EXPECT_EQ(real, model) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gfc::sim
