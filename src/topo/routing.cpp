#include "topo/routing.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

#include "net/ecmp.hpp"

namespace gfc::topo {

std::vector<NodeIndex> RoutingTable::trace(NodeIndex src, NodeIndex dst,
                                           std::uint64_t salt) const {
  std::vector<NodeIndex> path{src};
  NodeIndex at = src;
  while (at != dst) {
    if (path.size() > n_) return {};  // loop guard
    const std::span<const NodeIndex> hops = next_hops(at, dst);
    if (hops.empty()) return {};
    const std::size_t pick =
        hops.size() == 1 ? 0 : net::ecmp_select(salt, at, hops.size());
    at = hops[pick];
    path.push_back(at);
  }
  return path;
}

RoutingTable::Builder::Builder(std::size_t node_count, std::size_t class_hint) {
  t_.n_ = node_count;
  t_.dest_.resize(node_count);
  t_.offsets_.reserve(class_hint * node_count + 1);
}

void RoutingTable::Builder::close_rows(std::size_t end) {
  for (; next_row_ < end; ++next_row_)
    t_.offsets_.push_back(static_cast<std::uint32_t>(t_.hops_.size()));
}

void RoutingTable::Builder::begin_class(std::span<const NodeIndex> members) {
  if (open_) close_rows(t_.n_);
  assert(!members.empty() && std::is_sorted(members.begin(), members.end()));
  assert(t_.class_count() == 0 ||
         members.front() > t_.members(t_.class_count() - 1).front());
  const auto cls = static_cast<std::int32_t>(t_.class_count());
  for (const NodeIndex m : members) {
    Dest& d = t_.dest_[static_cast<std::size_t>(m)];
    assert(d.cls < 0 && "a host belongs to one class");
    d = {cls, static_cast<std::uint32_t>(t_.members_.size())};
    t_.members_.push_back(m);
  }
  t_.member_offsets_.push_back(static_cast<std::uint32_t>(t_.members_.size()));
  next_row_ = 0;
  open_ = true;
}

void RoutingTable::Builder::set_row(NodeIndex at,
                                    std::span<const NodeIndex> hops) {
  assert(open_ && static_cast<std::size_t>(at) >= next_row_ &&
         static_cast<std::size_t>(at) < t_.n_);
  close_rows(static_cast<std::size_t>(at));
  const std::span<const NodeIndex> members =
      t_.members(t_.class_count() - 1);
  if (members.size() == 1) {
    if (at != members[0])
      for (const NodeIndex h : hops)
        t_.hops_.push_back(h == kDeliver ? members[0] : h);
  } else {
    assert(hops.size() == 1 ||
           std::find(hops.begin(), hops.end(), kDeliver) == hops.end());
    t_.hops_.insert(t_.hops_.end(), hops.begin(), hops.end());
  }
  t_.offsets_.push_back(static_cast<std::uint32_t>(t_.hops_.size()));
  next_row_ = static_cast<std::size_t>(at) + 1;
}

RoutingTable RoutingTable::Builder::finish() && {
  if (open_) close_rows(t_.n_);
  open_ = false;
  return std::move(t_);
}

HostClasses attachment_classes(const Topology& topo) {
  const std::vector<NodeIndex>& hosts = topo.hosts();
  const std::size_t h = hosts.size();
  // Each host's up attachment switches, sorted: its class key.
  std::vector<std::uint32_t> key_off(h + 1, 0);
  std::vector<NodeIndex> keys;
  std::vector<char> alone(h, 0);
  for (std::size_t i = 0; i < h; ++i) {
    for (const auto& [nbr, link] : topo.neighbors(hosts[i]))
      if (!topo.is_host(nbr)) keys.push_back(nbr);
    const auto first = keys.begin() + key_off[i];
    std::sort(first, keys.end());
    alone[i] = std::adjacent_find(first, keys.end()) != keys.end();
    key_off[i + 1] = static_cast<std::uint32_t>(keys.size());
  }
  const auto key = [&](std::uint32_t i) {
    return std::span<const NodeIndex>(keys).subspan(key_off[i],
                                                    key_off[i + 1] - key_off[i]);
  };
  const auto same_class = [&](std::uint32_t a, std::uint32_t b) {
    const auto ka = key(a), kb = key(b);
    return !alone[a] && !alone[b] &&
           std::equal(ka.begin(), ka.end(), kb.begin(), kb.end());
  };
  // Group equal keys (position breaks ties, so each group is ascending).
  std::vector<std::uint32_t> order(h);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto ka = key(a), kb = key(b);
    if (std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(), kb.end()))
      return true;
    if (std::lexicographical_compare(kb.begin(), kb.end(), ka.begin(), ka.end()))
      return false;
    return a < b;
  });
  // Number the groups by first member, then list members class by class.
  std::vector<std::uint32_t> leader(h);  // each position's group's first member
  for (std::size_t i = 0; i < h; ++i)
    leader[order[i]] =
        i > 0 && same_class(order[i - 1], order[i]) ? leader[order[i - 1]] : order[i];
  HostClasses out;
  out.members.reserve(h);
  std::vector<std::uint32_t> cls(h);
  std::vector<std::uint32_t> size;
  for (std::size_t i = 0; i < h; ++i) {
    if (leader[i] == i) {
      cls[i] = static_cast<std::uint32_t>(size.size());
      size.push_back(0);
    } else {
      cls[i] = cls[leader[i]];
    }
    ++size[cls[i]];
  }
  out.offsets.resize(size.size() + 1);
  for (std::size_t c = 0; c < size.size(); ++c)
    out.offsets[c + 1] = out.offsets[c] + size[c];
  out.members.resize(h);
  std::vector<std::uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t i = 0; i < h; ++i) out.members[fill[cls[i]]++] = hosts[i];
  return out;
}

RoutingTable compute_shortest_paths(const Topology& topo) {
  const std::size_t n = topo.node_count();
  const HostClasses classes = attachment_classes(topo);
  RoutingTable::Builder table(n, classes.size());
  constexpr int kInf = std::numeric_limits<int>::max();
  const auto idx = [](NodeIndex v) { return static_cast<std::size_t>(v); };
  std::vector<int> dist(n);
  std::vector<NodeIndex> bfs;
  bfs.reserve(n);
  std::vector<NodeIndex> hops;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const NodeIndex dst = classes[c].front();
    table.begin_class(classes[c]);
    // Multi-source BFS from the switches the class hangs off: hosts never
    // transit traffic, so this labels every switch as a BFS from any
    // member would (distance counted from the member).
    dist.assign(n, kInf);
    bfs.clear();
    for (const auto& [nbr, link] : topo.neighbors(dst)) {
      if (topo.is_host(nbr) || dist[idx(nbr)] != kInf) continue;
      dist[idx(nbr)] = 1;
      bfs.push_back(nbr);
    }
    for (std::size_t qi = 0; qi < bfs.size(); ++qi) {
      const NodeIndex v = bfs[qi];
      for (const auto& [nbr, link] : topo.neighbors(v)) {
        if (topo.is_host(nbr) || dist[idx(nbr)] != kInf) continue;
        dist[idx(nbr)] = dist[idx(v)] + 1;
        bfs.push_back(nbr);
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      const NodeIndex at = static_cast<NodeIndex>(v);
      hops.clear();
      if (topo.is_host(at)) {
        // Source hosts (BFS never labels them) exit via their closest
        // attached switch(es).
        int best = kInf;
        for (const auto& [nbr, link] : topo.neighbors(at)) {
          if (topo.is_host(nbr)) continue;
          const int d = dist[idx(nbr)];
          if (d < best) {
            best = d;
            hops.assign(1, nbr);
          } else if (d == best && d != kInf) {
            hops.push_back(nbr);
          }
        }
      } else if (dist[v] == 1) {
        // Attached to the destination: deliver, once per link to it.
        for (const auto& [nbr, link] : topo.neighbors(at))
          if (nbr == dst) hops.push_back(RoutingTable::kDeliver);
      } else if (dist[v] != kInf) {
        for (const auto& [nbr, link] : topo.neighbors(at))
          if (!topo.is_host(nbr) && dist[idx(nbr)] == dist[v] - 1)
            hops.push_back(nbr);
      }
      if (!hops.empty()) table.set_row(at, hops);
    }
  }
  return std::move(table).finish();
}

RoutingTable ring_clockwise_routes(const Topology& topo, const RingInfo& ring) {
  const std::size_t n = ring.switches.size();
  // One class per host, rows in node order: each host enters at its own
  // switch, each switch delivers locally or forwards clockwise.
  std::vector<std::pair<NodeIndex, NodeIndex>> rows;
  RoutingTable::Builder table(topo.node_count(), n);
  for (std::size_t d = 0; d < n; ++d) {
    const NodeIndex dst = ring.hosts[d];
    rows.clear();
    for (std::size_t s = 0; s < n; ++s) {
      if (s != d) rows.push_back({ring.hosts[s], ring.switches[s]});
      rows.push_back({ring.switches[s],
                      s == d ? dst : ring.switches[(s + 1) % n]});
    }
    std::sort(rows.begin(), rows.end());
    table.begin_class({&dst, 1});
    for (const auto& [at, hop] : rows) table.set_row(at, {hop});
  }
  return std::move(table).finish();
}

}  // namespace gfc::topo
