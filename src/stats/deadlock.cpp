#include "stats/deadlock.hpp"

#include <algorithm>
#include <map>

namespace gfc::stats {

DeadlockDetector::DeadlockDetector(net::Network& net, Options opts)
    : net_(net),
      opts_(opts),
      probe_(net.sched(), kScanPeriod, [this](sim::TimePs now) { scan(now); }) {}

bool DeadlockDetector::cycle_now(std::vector<std::pair<net::NodeId, int>>* cycle) {
  const sim::TimePs now = net_.sched().now();
  // 1. Collect hold-and-wait egress ports.
  std::map<std::pair<net::NodeId, int>, int> ids;
  std::vector<std::pair<net::NodeId, int>> ports;
  for (std::size_t n = 0; n < net_.node_count(); ++n) {
    net::Node& node = net_.node(static_cast<net::NodeId>(n));
    for (int p = 0; p < node.port_count(); ++p) {
      if (node.port(p).probe_hold_and_wait(now)) {
        ids[{node.id(), p}] = static_cast<int>(ports.size());
        ports.push_back({node.id(), p});
      }
    }
  }
  if (ports.empty()) return false;

  // 2. Wait-for edges: stalled egress (A, p) waits on the ingress buffer of
  //    B = peer(A, p); that buffer's queue heads target egress ports of B;
  //    if those are stalled too, the wait continues through them.
  std::vector<std::vector<int>> edges(ports.size());
  std::vector<int> targets;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    net::Node& a = net_.node(ports[i].first);
    const auto peer = a.peer(ports[i].second);
    if (peer.node == net::kInvalidNode) continue;
    auto* b = dynamic_cast<net::SwitchNode*>(&net_.node(peer.node));
    if (b == nullptr) continue;  // hosts sink everything
    b->head_targets(peer.port, &targets);
    for (int q : targets) {
      const auto it = ids.find({b->id(), q});
      if (it != ids.end()) edges[i].push_back(it->second);
    }
  }

  // 3. Cycle detection (tri-color DFS with parent chain for the witness).
  const int n = static_cast<int>(ports.size());
  std::vector<int> color(static_cast<std::size_t>(n), 0);
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    color[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < edges[static_cast<std::size_t>(v)].size()) {
        const int w = edges[static_cast<std::size_t>(v)][next++];
        if (color[static_cast<std::size_t>(w)] == 0) {
          color[static_cast<std::size_t>(w)] = 1;
          parent[static_cast<std::size_t>(w)] = v;
          stack.push_back({w, 0});
        } else if (color[static_cast<std::size_t>(w)] == 1) {
          if (cycle != nullptr) {
            std::vector<int> cyc{v};
            for (int u = v; u != w; u = parent[static_cast<std::size_t>(u)])
              cyc.push_back(parent[static_cast<std::size_t>(u)]);
            std::reverse(cyc.begin(), cyc.end());
            cycle->clear();
            for (int u : cyc) cycle->push_back(ports[static_cast<std::size_t>(u)]);
          }
          return true;
        }
      } else {
        color[static_cast<std::size_t>(v)] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
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
