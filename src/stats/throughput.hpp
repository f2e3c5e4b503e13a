// Binned delivery-rate measurement (the paper counts sent bytes every
// 100 us for its throughput figures).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network.hpp"

namespace gfc::stats {

class ThroughputSampler final : public net::DeliveryListener {
 public:
  enum class Key { kAggregate, kPerFlow, kPerSrcHost };

  ThroughputSampler(net::Network& net, sim::TimePs bin_width,
                    Key key = Key::kAggregate);
  ~ThroughputSampler() override = default;

  void on_delivery(const net::Packet& pkt, sim::TimePs now) override;

  /// Gb/s per bin for one key (key 0 for aggregate), from bin 0 through the
  /// last bin that saw data anywhere.
  std::vector<double> series_gbps(std::int64_t key = 0) const;

  /// Mean delivered rate for `key` over [from, to) in Gb/s.
  double average_gbps(std::int64_t key, sim::TimePs from, sim::TimePs to) const;

  /// Aggregate mean delivered rate over [from, to) divided by `n_hosts`
  /// (the paper's "average available bandwidth" per server).
  double per_host_average_gbps(int n_hosts, sim::TimePs from,
                               sim::TimePs to) const;

  sim::TimePs bin_width() const { return bin_; }
  std::int64_t total_bytes() const { return total_bytes_; }

 private:
  std::int64_t key_of(const net::Packet& pkt) const;

  sim::TimePs bin_;
  Key key_;
  std::map<std::int64_t, std::vector<std::int64_t>> bins_;
  std::size_t max_bin_ = 0;
  std::int64_t total_bytes_ = 0;
};

}  // namespace gfc::stats
