#include "stats/deadlock.hpp"

#include <algorithm>
#include <ranges>

#include "topo/first_cycle.hpp"

namespace gfc::stats {

DeadlockDetector::DeadlockDetector(net::Network& net, Options opts)
    : net_(net),
      opts_(opts),
      probe_(net.sched(), kScanPeriod, [this](sim::TimePs now) { scan(now); }) {}

bool DeadlockDetector::cycle_now(std::vector<std::pair<net::NodeId, int>>* cycle) {
  const sim::TimePs now = net_.sched().now();
  // 1. Collect hold-and-wait egress ports, in (node, port) order.
  std::vector<std::pair<net::NodeId, int>> ports;
  for (std::size_t n = 0; n < net_.node_count(); ++n) {
    net::Node& node = net_.node(static_cast<net::NodeId>(n));
    for (int p = 0; p < node.port_count(); ++p)
      if (node.port(p).probe_hold_and_wait(now)) ports.push_back({node.id(), p});
  }
  if (ports.empty()) return false;

  // 2. Wait-for edges: stalled egress (A, p) waits on the ingress buffer of
  //    B = peer(A, p); that buffer's queue heads target egress ports of B;
  //    if those are stalled too, the wait continues through them.
  std::vector<std::vector<int>> edges(ports.size());
  std::vector<int> targets;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const auto peer = net_.node(ports[i].first).peer(ports[i].second);
    if (peer.node == net::kInvalidNode) continue;
    net::SwitchNode* b = net_.sw(peer.node);
    if (b == nullptr) continue;  // hosts sink everything
    b->head_targets(peer.port, &targets);
    for (int q : targets) {
      const std::pair<net::NodeId, int> key{b->id(), q};
      const auto it = std::lower_bound(ports.begin(), ports.end(), key);
      if (it != ports.end() && *it == key)
        edges[i].push_back(static_cast<int>(it - ports.begin()));
    }
  }

  // 3. The first wait-for cycle, ports in (node, port) order.
  const std::vector<int> found = topo::first_cycle(
      ports.size(), std::views::iota(0, static_cast<int>(ports.size())),
      [&edges](int v) -> const std::vector<int>& {
        return edges[static_cast<std::size_t>(v)];
      });
  if (found.empty()) return false;
  if (cycle != nullptr) {
    cycle->clear();
    for (const int v : found) cycle->push_back(ports[static_cast<std::size_t>(v)]);
  }
  return true;
}

void DeadlockDetector::recover_cycle(
    const std::vector<std::pair<net::NodeId, int>>& cycle) {
  // Witness-cycle members are always switch egress ports (edges only ever
  // lead into switches); draining them releases the ingress claims the
  // cycle's PAUSE/credit state is wedged on.
  for (const auto& [nid, port] : cycle) {
    if (auto* sw = net_.sw(nid)) {
      const std::uint64_t dropped = sw->drain_egress(port);
      recovered_packets_ += dropped;
      net_.trace_event(trace::EventType::kDeadlockRecover, nid, port, -1, 0,
                       static_cast<std::int64_t>(dropped));
    }
  }
  ++recoveries_;
}

void DeadlockDetector::scan(sim::TimePs now) {
  if (deadlocked_) return;
  std::vector<std::pair<net::NodeId, int>> cycle;
  if (cycle_now(&cycle)) {
    ++consecutive_;
    if (consecutive_ >= kConfirmScans) {
      ++detections_;
      if (detected_at_ < 0) {
        detected_at_ = now;  // first confirmation, kept across recoveries
        cycle_ = cycle;
      }
      consecutive_ = 0;
      // One trace event per witness-cycle member; value indexes the
      // position within the cycle so the dump reconstructs its order.
      for (std::size_t i = 0; i < cycle.size(); ++i)
        net_.trace_event(trace::EventType::kDeadlockDetect, cycle[i].first,
                         cycle[i].second, -1, static_cast<std::uint64_t>(i),
                         static_cast<std::int64_t>(cycle.size()));
      if (opts_.on_detect) opts_.on_detect(*this);
      if (opts_.recover) {
        recover_cycle(cycle);
      } else {
        deadlocked_ = true;
        if (opts_.stop_on_detect) net_.sched().request_stop();
      }
    }
  } else {
    consecutive_ = 0;
  }
}

}  // namespace gfc::stats
