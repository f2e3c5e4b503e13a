// Shared driver for the scheduler differential layer: a seeded adversarial
// op-script generator plus a harness that applies the script to either
// engine (production timing-wheel sim::Scheduler or the frozen PR-1 heap
// in tests/reference_scheduler.hpp) and records every observable:
// callback firings (tag, time), event and timer cancel results, step
// results, now(), pending_events().
//
// Used by tests/scheduler_differential_test.cpp (gtest, fixed seeds) and
// tests/scheduler_fuzz.cpp (standalone binary, seed sweep / timed runs).
#pragma once

#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "reference_scheduler.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace gfc::sim::difftest {

// One log record per callback firing.
struct Fire {
  std::uint64_t tag;
  TimePs t;
  bool operator==(const Fire&) const = default;
};

// The op script is pure data, generated once per seed and applied to both
// engines. Callback side effects (chained schedules, timer re-fires and
// self-cancels) are pure functions of the callback's tag and the harness
// state, so identical execution order implies identical behavior — and
// divergent order shows up in the logs.
struct Op {
  enum Kind : std::uint8_t {
    kSchedule,  // one event at now + delta
    kBurst,     // `count` events at the same instant (FIFO tie-order)
    kCancel,    // cancel live[sel] (often already fired -> must be false)
    kRegisterTimer,
    kFireTimer,    // `count` more firings of timers[sel] at now + delta
    kCancelTimer,  // drop every pending firing of timers[sel]
    kStep,
    kRunUntil,  // drain to now + delta
    kFrameEdge,  // one event at the next level-0 frame boundary + delta
  };
  Kind kind;
  std::uint32_t count;  // kBurst width, kFireTimer firings
  std::uint32_t sel;    // index selector for cancel/timer ops
  TimePs delta;         // time offset for schedule/arm/run_until
};

// Timestamp deltas that probe every structural boundary of the wheel,
// taken from the engine's own geometry so they follow it: tick 0 (near
// batch), one-tick edges and off-by-ones, anywhere in level 0, the
// level-0 span +-1 tick (the first cascade), each upper level's frontier
// and slot multiples, the last tick of the top level's first revolution,
// one revolution ahead and up to eight (entries the top level re-links
// into their slot once per revolution), plus generic near-term noise.
inline TimePs adversarial_delta(std::mt19937_64& rng) {
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
  constexpr TimePs kL1 = Scheduler::kLevelSpanPs[1];
  constexpr TimePs kL2 = Scheduler::kLevelSpanPs[2];
  constexpr TimePs kHorizon = Scheduler::kHorizonPs;
  const auto pick = [&rng](std::uint64_t n) {
    return static_cast<TimePs>(rng() % n);
  };
  switch (rng() % 20) {
    case 0: return 0;                          // same instant
    case 1: return 1;                          // same tick
    case 2: return kTick - 1;                  // last ps of the tick
    case 3: return kTick;                      // exact tick boundary
    case 4: return kTick + 1;
    case 5: return kTick * (1 + pick(4095));   // anywhere in level 0
    case 6: return kL0 - kTick;                // last level-0 tick
    case 7: return kL0;                        // level-1 frontier
    case 8: return kL0 + kTick;
    case 9: return kL0 * (1 + pick(63));       // level-1 slots
    case 10: return kL1;                       // level-2 frontier
    case 11: return kL1 * (1 + pick(63));
    case 12: return kL2;                       // level-3 frontier
    case 13: return kL2 * (1 + pick(63));
    case 14: return kHorizon - kTick;          // last tick of this revolution
    case 15: return kHorizon;                  // one revolution ahead
    case 16: return kHorizon + pick(1u << 20);
    case 17: return kHorizon * (1 + pick(7));  // up to 8 revolutions ahead
    default: return pick(200000);              // generic near
  }
}

// Offsets around the next level-0 frame boundary (Op::kFrameEdge). An
// event there, scheduled from late in a frame, sits in a level-0 slot
// below the cursor's: the next pop wraps the frame, just past the fast
// path.
inline TimePs frame_edge_offset(std::mt19937_64& rng) {
  constexpr TimePs kTick = Scheduler::kTickPs;
  constexpr TimePs kOffsets[] = {-kTick, -1, 0, 1, kTick, 2 * kTick};
  return kOffsets[rng() % std::size(kOffsets)];
}

inline std::vector<Op> make_script(std::uint64_t seed, std::size_t n_ops) {
  std::mt19937_64 rng(seed);
  std::vector<Op> script;
  script.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op{};
    const std::uint32_t roll = static_cast<std::uint32_t>(rng() % 100);
    if (roll < 26) {
      op.kind = Op::kSchedule;
      op.delta = adversarial_delta(rng);
    } else if (roll < 30) {
      op.kind = Op::kFrameEdge;
      op.delta = frame_edge_offset(rng);
    } else if (roll < 40) {
      op.kind = Op::kBurst;  // dense same-instant churn
      op.count = 2 + static_cast<std::uint32_t>(rng() % 7);
      op.delta = adversarial_delta(rng);
    } else if (roll < 52) {
      op.kind = Op::kCancel;  // stale ids included on purpose
      op.sel = static_cast<std::uint32_t>(rng());
    } else if (roll < 55) {
      op.kind = Op::kRegisterTimer;
    } else if (roll < 70) {
      // Several firings of one timer pending at once, at the same instant
      // or spread over the wheel levels by repeated ops.
      op.kind = Op::kFireTimer;
      op.count = 1 + static_cast<std::uint32_t>(rng() % 3);
      op.sel = static_cast<std::uint32_t>(rng());
      op.delta = adversarial_delta(rng);
    } else if (roll < 74) {
      op.kind = Op::kCancelTimer;
      op.sel = static_cast<std::uint32_t>(rng());
    } else if (roll < 86) {
      op.kind = Op::kStep;
    } else {
      op.kind = Op::kRunUntil;
      // Mostly modest drains; occasionally a huge jump that rolls the
      // wheel cursor across whole level-3 frames (epoch advance).
      op.delta = rng() % 8 == 0 ? adversarial_delta(rng) * 64
                                : adversarial_delta(rng);
    }
    script.push_back(op);
  }
  return script;
}

// Drives one engine through the script. Sched is sim::Scheduler or
// testref::ReferenceScheduler — the API subset used here is identical.
template <typename Sched>
class Harness {
 public:
  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kSchedule:
        schedule_one(s_.now() + op.delta);
        break;
      case Op::kBurst: {
        const TimePs t = s_.now() + op.delta;
        for (std::uint32_t i = 0; i < op.count; ++i) schedule_one(t);
        break;
      }
      case Op::kCancel:
        if (!live_.empty())
          results_.push_back(s_.cancel(live_[op.sel % live_.size()]));
        break;
      case Op::kRegisterTimer: {
        const std::size_t ti = timers_.size();
        timers_.push_back(s_.register_timer([this, ti] { on_timer(ti); }));
        timer_budget_.push_back(0);
        timer_fires_.push_back(0);
        break;
      }
      case Op::kFireTimer:
        if (!timers_.empty()) {
          const std::size_t k = op.sel % timers_.size();
          timer_budget_[k] = 3;
          for (std::uint32_t i = 0; i < op.count; ++i)
            s_.fire_at(timers_[k], s_.now() + op.delta);
        }
        break;
      case Op::kCancelTimer:
        if (!timers_.empty())
          results_.push_back(s_.cancel(timers_[op.sel % timers_.size()]));
        break;
      case Op::kStep:
        results_.push_back(s_.step());
        break;
      case Op::kRunUntil:
        s_.run_until(s_.now() + op.delta);
        break;
      case Op::kFrameEdge: {
        constexpr TimePs kL0 = Scheduler::kLevel0SpanPs;
        schedule_one((s_.now() / kL0 + 1) * kL0 + op.delta);
        break;
      }
    }
  }

  /// Cancel every event id ever issued and every timer, leaving the engine
  /// empty but with its slots, wheel nodes and stale entries in place.
  void cancel_all() {
    for (EventId id : live_) results_.push_back(s_.cancel(id));
    for (TimerId t : timers_) results_.push_back(s_.cancel(t));
  }

  const std::vector<Fire>& log() const { return log_; }
  const std::vector<bool>& results() const { return results_; }
  TimePs now() const { return s_.now(); }
  std::size_t pending() const { return s_.pending_events(); }
  void drain() { s_.run_all(); }

 private:
  void schedule_one(TimePs t) {
    const std::uint64_t tag = next_tag_++;
    live_.push_back(s_.schedule_at(t, [this, tag] {
      log_.push_back(Fire{tag, s_.now()});
      // Every 7th callback chains a follow-up (in-callback scheduling is
      // the simulator's normal mode); the delay is a pure function of the
      // tag so both engines chain identically when order matches.
      if (tag % 7 == 0) schedule_one(s_.now() + 1 + (tag % 1000) * 131);
    }));
  }

  void on_timer(std::size_t ti) {
    log_.push_back(Fire{kTimerTagBase + ti, s_.now()});
    // Every 5th firing of a timer cancels its other pending firings from
    // inside its own callback.
    if (++timer_fires_[ti] % 5 == 0) results_.push_back(s_.cancel(timers_[ti]));
    // Re-fire with a bounded budget: the saturated-port drain pattern
    // (fire_at from inside the timer's own firing).
    if (timer_budget_[ti] > 0) {
      --timer_budget_[ti];
      s_.fire_at(timers_[ti], s_.now() + 1 + static_cast<TimePs>(ti % 5) * 97);
    }
  }

  static constexpr std::uint64_t kTimerTagBase = 1ull << 48;

  Sched s_;
  std::vector<Fire> log_;
  std::vector<bool> results_;
  std::vector<EventId> live_;  // every id ever issued (stale ones included)
  std::vector<TimerId> timers_;
  std::vector<int> timer_budget_;
  std::vector<std::uint64_t> timer_fires_;
  std::uint64_t next_tag_ = 0;
};

// Runs both engines through an `n_ops` script for `seed`. Returns an empty
// string on agreement, else a description of the first divergence.
inline std::string run_differential(std::uint64_t seed, std::size_t n_ops) {
  const std::vector<Op> script = make_script(seed, n_ops);
  Harness<Scheduler> wheel;
  Harness<testref::ReferenceScheduler> ref;
  auto fail = [seed](std::size_t i, const char* what) {
    std::ostringstream os;
    os << "seed " << seed << ": engines diverged on " << what << " after op "
       << i;
    return os.str();
  };
  for (std::size_t i = 0; i < script.size(); ++i) {
    wheel.apply(script[i]);
    ref.apply(script[i]);
    if (wheel.now() != ref.now()) return fail(i, "now()");
    if (wheel.pending() != ref.pending()) return fail(i, "pending_events()");
    if (wheel.log().size() != ref.log().size())
      return fail(i, "executed-event count");
  }
  wheel.drain();
  ref.drain();
  const std::size_t n = script.size();
  if (wheel.log() != ref.log()) return fail(n, "execution log");
  if (wheel.results() != ref.results()) return fail(n, "op results");
  if (wheel.now() != ref.now()) return fail(n, "final now()");
  if (wheel.pending() != ref.pending()) return fail(n, "final pending");
  return {};
}

}  // namespace gfc::sim::difftest
