// Feedback-message bandwidth accounting (Figure 19): every `window` it
// samples, per switch egress port, the fraction of link capacity consumed
// by flow-control frames in that window.
#pragma once

#include <vector>

#include "net/network.hpp"
#include "stats/cdf.hpp"
#include "stats/probe.hpp"

namespace gfc::stats {

class FeedbackBandwidthMonitor {
 public:
  FeedbackBandwidthMonitor(net::Network& net, sim::TimePs window = sim::us(500));

  /// Per-port per-window occupied-bandwidth fractions (0..1).
  const CdfBuilder& samples() const { return cdf_; }
  double mean_fraction() const { return cdf_.mean(); }
  double max_fraction() const { return cdf_.max(); }

 private:
  void sample(sim::TimePs now);

  net::Network& net_;
  sim::TimePs window_;
  PeriodicProbe probe_;
  std::vector<std::vector<std::uint64_t>> last_ctrl_bytes_;  // [node][port]
  CdfBuilder cdf_;
};

}  // namespace gfc::stats
