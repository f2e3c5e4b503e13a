// Per-trial progress heartbeats and cooperative cancellation.
//
// The worker pool publishes one ProgressSink per worker through a
// thread-local pointer; runner::Fabric picks it up at construction and
// installs a periodic scheduler timer that beacons (sim time, executed
// events) into the sink as the trial runs. The pool's watchdog reads the
// beacons from its own thread and, when a trial exceeds --trial-timeout,
// sets the sink's cancel flag; the next beacon throws CancelledError,
// unwinding the trial cleanly out of run_until (the trial's private
// Network/Scheduler tears down as usual; the pool records `timed_out`).
//
// Cancellation is cooperative: a trial that never beacons — a non-sim
// trial body, or a pathological zero-delay event storm that starves the
// beacon timer — cannot be cancelled. Every sim trial beacons via the
// Fabric hook; synthetic trial bodies can call progress_checkpoint() in
// their own loops.
//
// Header-only on purpose: runner::Fabric includes this without linking
// gfc_exp (same layering trick as analyze's use of runner/config.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

namespace gfc::exp {

/// Thrown out of a trial body by ProgressSink::beacon after the watchdog
/// requested cancellation. The worker pool catches it and records the
/// trial as timed out (it is not a failure in the --jobs-pool sense).
class CancelledError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "trial cancelled: exceeded --trial-timeout";
  }
};

class ProgressSink {
 public:
  /// Publish a heartbeat; throws CancelledError when cancellation has been
  /// requested. Called from the trial's (worker) thread.
  void beacon(std::int64_t sim_time_ps, std::uint64_t events) {
    sim_time_ps_.store(sim_time_ps, std::memory_order_relaxed);
    events_.store(events, std::memory_order_relaxed);
    beats_.fetch_add(1, std::memory_order_relaxed);
    if (cancel_.load(std::memory_order_acquire)) throw CancelledError();
  }

  /// Watchdog side: make the next beacon throw.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }

  /// Monitoring reads (watchdog / progress line); racy-by-design counters.
  std::uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  std::int64_t sim_time_ps() const {
    return sim_time_ps_.load(std::memory_order_relaxed);
  }
  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Re-arm for the next attempt (retries reuse the worker's sink).
  void reset() {
    cancel_.store(false, std::memory_order_release);
    beats_.store(0, std::memory_order_relaxed);
    sim_time_ps_.store(0, std::memory_order_relaxed);
    events_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancel_{false};
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::int64_t> sim_time_ps_{0};
  std::atomic<std::uint64_t> events_{0};
};

namespace detail {
inline thread_local ProgressSink* t_current_sink = nullptr;
}

/// The sink of the trial currently running on this thread (null outside a
/// worker-pool trial). runner::Fabric consults this at construction.
inline ProgressSink* current_progress_sink() {
  return detail::t_current_sink;
}
inline void set_current_progress_sink(ProgressSink* sink) {
  detail::t_current_sink = sink;
}

/// Convenience for synthetic (non-sim) trial bodies: beacon if a sink is
/// installed, else no-op. Long-running hand-written trials should call this
/// inside their loops so --trial-timeout can reach them.
inline void progress_checkpoint(std::int64_t sim_time_ps = 0,
                                std::uint64_t events = 0) {
  if (ProgressSink* s = current_progress_sink()) s->beacon(sim_time_ps, events);
}

}  // namespace gfc::exp
