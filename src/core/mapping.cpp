#include "core/mapping.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace gfc::core {

LinearMapping::LinearMapping(sim::Rate line_rate, std::int64_t b0,
                             std::int64_t bm, sim::Rate min_rate)
    : line_rate_(line_rate), b0_(b0), bm_(bm), min_rate_(min_rate) {
  if (b0 < 0 || b0 >= bm)
    throw std::invalid_argument("LinearMapping: B_0 = " + std::to_string(b0) +
                                " must satisfy 0 <= B_0 < B_m = " +
                                std::to_string(bm));
}

sim::Rate LinearMapping::rate_for(std::int64_t q) const {
  if (q <= b0_) return line_rate_;
  if (q >= bm_) return min_rate_;
  const double frac = static_cast<double>(bm_ - q) / static_cast<double>(bm_ - b0_);
  sim::Rate r = line_rate_ * frac;
  return r < min_rate_ ? min_rate_ : r;
}

MultiStageMapping::MultiStageMapping(sim::Rate line_rate, std::int64_t b1,
                                     std::int64_t bm, sim::Rate min_rate)
    : line_rate_(line_rate), bm_(bm), min_rate_(min_rate) {
  if (b1 <= 0 || b1 >= bm)
    throw std::invalid_argument(
        "MultiStageMapping: B_1 = " + std::to_string(b1) +
        " must satisfy 0 < B_1 < B_m = " + std::to_string(bm));
  // B_m - B_k = (B_m - B_1) / 2^(k-1)  (Eq. 5)
  std::int64_t gap = bm - b1;  // B_m - B_k for the stage being emitted
  sim::Rate rate = line_rate / 2.0;  // R_1
  std::int64_t prev_b = -1;
  while (true) {
    const std::int64_t b_k = bm - gap;
    if (prev_b >= 0 && b_k - prev_b < 1) break;  // stage narrower than 1 B
    boundaries_.push_back(b_k);
    prev_b = b_k;
    if (rate <= min_rate) break;  // deeper stages are below the rate floor
    gap /= 2;
    rate = rate / 2.0;
    if (gap <= 0) break;
  }
}

int MultiStageMapping::stage_of(std::int64_t q) const {
  // boundaries_ is ascending; stage = count of B_k <= q.
  int lo = 0;
  int hi = num_stages();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (boundaries_[static_cast<std::size_t>(mid)] <= q)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

sim::Rate MultiStageMapping::rate_of(int stage) const {
  assert(stage >= 0 && stage <= num_stages());
  if (stage == 0) return line_rate_;
  sim::Rate r{line_rate_.bps >> stage};
  return r < min_rate_ ? min_rate_ : r;
}

}  // namespace gfc::core
