// Flow-completion statistics: FCT and slowdown (actual FCT divided by the
// shortest possible time for the same size on an unloaded network —
// Figure 17's metric).
#pragma once

#include <functional>
#include <vector>

#include "net/network.hpp"

namespace gfc::stats {

class FlowStats {
 public:
  struct Record {
    net::FlowId id;
    std::int64_t size_bytes;
    sim::TimePs fct;
    double slowdown;
  };

  /// `ideal_fct` gives the unloaded completion time of a flow (topology
  /// aware callers pass hop-exact values; default_ideal_fct is a helper).
  FlowStats(net::Network& net, std::function<sim::TimePs(const net::Flow&)> ideal_fct);

  const std::vector<Record>& records() const { return records_; }
  std::size_t count() const { return records_.size(); }
  double mean_slowdown() const;

  /// Store-and-forward ideal: serialization of the flow + per-hop MTU
  /// forwarding and propagation over `hops` switch hops.
  static sim::TimePs default_ideal_fct(const net::Flow& flow, sim::Rate line_rate,
                                       int hops, sim::TimePs prop_delay,
                                       std::int64_t mtu);

 private:
  std::function<sim::TimePs(const net::Flow&)> ideal_fct_;
  std::vector<Record> records_;
};

}  // namespace gfc::stats
