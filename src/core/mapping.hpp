// GFC mapping functions: queue length -> upstream sending rate.
//
// * LinearMapping — the conceptual design (Fig. 4b) reused by time-based
//   GFC: full rate up to B_0, then linear decrease, hitting the rate floor
//   as q approaches B_m.
// * MultiStageMapping — the practical buffer-based step function (Fig. 6):
//   stage rates R_k = C / 2^k (Eq. 4) and stage boundaries
//   B_m - B_k = (B_m - B_1) / 2^(k-1) (Eq. 5).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gfc::core {

/// Commodity-switch rate-limiter granularity floor (Sec. 7: 8 Kb/s).
inline constexpr sim::Rate kDefaultMinRate{8'000};

class LinearMapping {
 public:
  LinearMapping() = default;
  /// Throws std::invalid_argument unless 0 <= b0 < bm.
  LinearMapping(sim::Rate line_rate, std::int64_t b0, std::int64_t bm,
                sim::Rate min_rate = kDefaultMinRate);

  /// Mapped sending rate for ingress queue length `q` (never below the
  /// floor: GFC rates never reach zero, that is the whole point).
  sim::Rate rate_for(std::int64_t q) const;

  sim::Rate line_rate() const { return line_rate_; }
  std::int64_t b0() const { return b0_; }
  std::int64_t bm() const { return bm_; }

 private:
  sim::Rate line_rate_{};
  std::int64_t b0_ = 0;
  std::int64_t bm_ = 0;
  sim::Rate min_rate_ = kDefaultMinRate;
};

class MultiStageMapping {
 public:
  MultiStageMapping() = default;
  /// `b1` is the first threshold (paper sets B_1 directly; stage 0 below it
  /// maps to line rate). Throws std::invalid_argument unless 0 < b1 < bm.
  MultiStageMapping(sim::Rate line_rate, std::int64_t b1, std::int64_t bm,
                    sim::Rate min_rate = kDefaultMinRate);

  /// Stage index for queue length `q`: 0 when q < B_1, else the largest k
  /// with q >= B_k.
  int stage_of(std::int64_t q) const;

  /// R_k = C / 2^k, clamped to the rate floor.
  sim::Rate rate_of(int stage) const;

  /// B_k for k in [1, num_stages()].
  std::int64_t boundary(int k) const {
    return boundaries_[static_cast<std::size_t>(k - 1)];
  }

  /// N: stages are enumerated 1..N; deeper stages are omitted once a stage
  /// is under one byte wide (paper: 8 bits) or under the rate floor.
  int num_stages() const { return static_cast<int>(boundaries_.size()); }

  sim::Rate line_rate() const { return line_rate_; }
  std::int64_t b1() const { return boundary(1); }
  std::int64_t bm() const { return bm_; }

 private:
  sim::Rate line_rate_{};
  std::int64_t bm_ = 0;
  sim::Rate min_rate_ = kDefaultMinRate;
  std::vector<std::int64_t> boundaries_;  // B_1 .. B_N
};

}  // namespace gfc::core
