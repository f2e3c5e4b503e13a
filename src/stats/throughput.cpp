#include "stats/throughput.hpp"

namespace gfc::stats {

ThroughputSampler::ThroughputSampler(net::Network& net, sim::TimePs bin_width,
                                     Key key)
    : bin_(bin_width), key_(key) {
  net.add_delivery_listener(this);
}

std::int64_t ThroughputSampler::key_of(const net::Packet& pkt) const {
  switch (key_) {
    case Key::kAggregate: return 0;
    case Key::kPerFlow: return pkt.flow();
    case Key::kPerSrcHost: return pkt.src;
  }
  return 0;
}

void ThroughputSampler::on_delivery(const net::Packet& pkt, sim::TimePs now) {
  const auto bin = static_cast<std::size_t>(now / bin_);
  auto& series = bins_[key_of(pkt)];
  if (series.size() <= bin) series.resize(bin + 1, 0);
  series[bin] += pkt.size_bytes;
  if (bin > max_bin_) max_bin_ = bin;
  total_bytes_ += pkt.size_bytes;
}

std::vector<double> ThroughputSampler::series_gbps(std::int64_t key) const {
  std::vector<double> out(max_bin_ + 1, 0.0);
  auto it = bins_.find(key);
  if (it == bins_.end()) return out;
  const double secs = sim::to_seconds(bin_);
  for (std::size_t i = 0; i < it->second.size(); ++i)
    out[i] = static_cast<double>(it->second[i]) * 8.0 / secs / 1e9;
  return out;
}

double ThroughputSampler::average_gbps(std::int64_t key, sim::TimePs from,
                                       sim::TimePs to) const {
  auto it = bins_.find(key);
  if (it == bins_.end() || to <= from) return 0.0;
  std::int64_t bytes = 0;
  const auto b0 = static_cast<std::size_t>(from / bin_);
  const auto b1 = static_cast<std::size_t>(to / bin_);
  for (std::size_t b = b0; b < b1 && b < it->second.size(); ++b)
    bytes += it->second[b];
  return static_cast<double>(bytes) * 8.0 / sim::to_seconds(to - from) / 1e9;
}

double ThroughputSampler::per_host_average_gbps(int n_hosts, sim::TimePs from,
                                                sim::TimePs to) const {
  if (n_hosts <= 0) return 0.0;
  return average_gbps(0, from, to) / n_hosts;
}

}  // namespace gfc::stats
