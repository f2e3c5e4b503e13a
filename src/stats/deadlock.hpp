// Runtime deadlock detection.
//
// A port is in hold-and-wait when it is idle, holds data, and its gate
// blocks every head-of-line packet with no self-scheduled wake (PFC pause /
// CBFC credit exhaustion; GFC's rate limiter always has a wake time, so GFC
// ports never qualify — exactly the paper's argument). Deadlock is declared
// when the wait-for graph over hold-and-wait ports contains a cycle for
// kConfirmScans consecutive scans, one every kScanPeriod: stalled egress
// A->B waits on the stalled egress ports of B that hold packets charged to
// the A->B ingress.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "stats/probe.hpp"

namespace gfc::stats {

class DeadlockDetector;

struct DeadlockOptions {
  bool stop_on_detect = false;  // halt the scheduler at detection
  /// Recovery mode: instead of latching `deadlocked`, drain the witness
  /// cycle's egress queues (dropping their packets, releasing ingress
  /// accounting so PAUSE/credit state heals) and keep scanning. The run
  /// continues; detections/recoveries/dropped counts are reported instead.
  bool recover = false;
  /// Called at every confirmed detection, after the witness cycle is
  /// captured but before any recovery drain — the flight-recorder dump
  /// hook. May call DeadlockDetector::stop() (the detector's probe survives
  /// reentrant stops), hence the non-const reference; lambdas taking a
  /// const reference convert fine.
  std::function<void(DeadlockDetector&)> on_detect;
};

class DeadlockDetector {
 public:
  using Options = DeadlockOptions;

  static constexpr sim::TimePs kScanPeriod = sim::ms(1);
  static constexpr int kConfirmScans = 3;

  explicit DeadlockDetector(net::Network& net, Options opts = {});

  bool deadlocked() const { return deadlocked_; }
  sim::TimePs detected_at() const { return detected_at_; }
  /// The witness cycle: (node id, egress port index) pairs.
  const std::vector<std::pair<net::NodeId, int>>& cycle() const { return cycle_; }

  /// Confirmed deadlocks seen (>= 1 per recovery in recover mode; 0 or 1
  /// otherwise, matching `deadlocked`).
  int detections() const { return detections_; }
  /// Completed drain-and-reset recoveries (recover mode only).
  int recoveries() const { return recoveries_; }
  /// Data packets discarded while draining witness cycles.
  std::uint64_t recovered_packets() const { return recovered_packets_; }

  /// One-shot analysis at the current instant (also used by tests).
  bool cycle_now(std::vector<std::pair<net::NodeId, int>>* cycle = nullptr);

  /// Stop scanning. Safe from inside on_detect (i.e. mid-scan).
  void stop() { probe_.stop(); }

 private:
  void scan(sim::TimePs now);
  void recover_cycle(const std::vector<std::pair<net::NodeId, int>>& cycle);

  net::Network& net_;
  Options opts_;
  PeriodicProbe probe_;
  int consecutive_ = 0;
  bool deadlocked_ = false;
  sim::TimePs detected_at_ = -1;
  int detections_ = 0;
  int recoveries_ = 0;
  std::uint64_t recovered_packets_ = 0;
  std::vector<std::pair<net::NodeId, int>> cycle_;
};

}  // namespace gfc::stats
