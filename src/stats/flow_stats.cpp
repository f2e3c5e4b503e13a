#include "stats/flow_stats.hpp"

#include <algorithm>

namespace gfc::stats {

FlowStats::FlowStats(net::Network& net,
                     std::function<sim::TimePs(const net::Flow&)> ideal_fct)
    : ideal_fct_(std::move(ideal_fct)) {
  net.add_completion_listener([this](net::Flow& flow) {
    const sim::TimePs fct = flow.finish_time - flow.start_time;
    const sim::TimePs ideal = ideal_fct_(flow);
    records_.push_back(Record{flow.id, flow.size_bytes, fct,
                              ideal > 0 ? static_cast<double>(fct) /
                                              static_cast<double>(ideal)
                                        : 1.0});
  });
}

double FlowStats::mean_slowdown() const {
  if (records_.empty()) return 0.0;
  double sum = 0;
  for (const auto& r : records_) sum += r.slowdown;
  return sum / static_cast<double>(records_.size());
}

sim::TimePs FlowStats::default_ideal_fct(const net::Flow& flow,
                                         sim::Rate line_rate, int hops,
                                         sim::TimePs prop_delay,
                                         std::int64_t mtu) {
  const std::int64_t size = flow.size_bytes > 0 ? flow.size_bytes : mtu;
  // Sender serializes the whole flow; each switch hop store-and-forwards
  // (at most) one MTU and adds propagation.
  return sim::tx_time(line_rate, size) +
         hops * (sim::tx_time(line_rate, std::min(size, mtu)) + prop_delay) +
         prop_delay;
}

}  // namespace gfc::stats
