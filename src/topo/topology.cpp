#include "topo/topology.hpp"

#include <cassert>
#include <deque>

namespace gfc::topo {

NodeIndex Topology::add_host(std::string name, int pod) {
  nodes_.push_back(TopoNode{std::move(name), true, 0, pod});
  adj_dirty_ = true;
  hosts_.push_back(static_cast<NodeIndex>(nodes_.size() - 1));
  return hosts_.back();
}

NodeIndex Topology::add_switch(std::string name, int layer, int pod) {
  nodes_.push_back(TopoNode{std::move(name), false, layer, pod});
  adj_dirty_ = true;
  switches_.push_back(static_cast<NodeIndex>(nodes_.size() - 1));
  return switches_.back();
}

LinkIndex Topology::add_link(NodeIndex a, NodeIndex b) {
  assert(a != b);
  links_.push_back(TopoLink{a, b, true});
  adj_dirty_ = true;
  return static_cast<LinkIndex>(links_.size() - 1);
}

void Topology::restore_all() {
  for (auto& l : links_) l.up = true;
  adj_dirty_ = true;
}

std::vector<LinkIndex> Topology::switch_links() const {
  std::vector<LinkIndex> out;
  for (std::size_t l = 0; l < links_.size(); ++l)
    if (!is_host(links_[l].a) && !is_host(links_[l].b))
      out.push_back(static_cast<LinkIndex>(l));
  return out;
}

void Topology::rebuild_adjacency() const {
  adj_.assign(nodes_.size(), {});
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const TopoLink& link = links_[l];
    if (!link.up) continue;
    adj_[static_cast<std::size_t>(link.a)].push_back(
        {link.b, static_cast<LinkIndex>(l)});
    adj_[static_cast<std::size_t>(link.b)].push_back(
        {link.a, static_cast<LinkIndex>(l)});
  }
  adj_dirty_ = false;
}

const std::vector<std::pair<NodeIndex, LinkIndex>>& Topology::neighbors(
    NodeIndex i) const {
  if (adj_dirty_) rebuild_adjacency();
  return adj_[static_cast<std::size_t>(i)];
}

NodeIndex Topology::rack_of(NodeIndex host) const {
  for (const auto& [nbr, link] : neighbors(host))
    if (!is_host(nbr)) return nbr;
  return -1;
}

bool Topology::hosts_connected() const {
  const auto& hs = hosts_;
  if (hs.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeIndex> bfs{hs[0]};
  seen[static_cast<std::size_t>(hs[0])] = true;
  std::size_t host_seen = 0;
  while (!bfs.empty()) {
    const NodeIndex v = bfs.front();
    bfs.pop_front();
    if (is_host(v)) ++host_seen;
    for (const auto& [nbr, link] : neighbors(v)) {
      if (!seen[static_cast<std::size_t>(nbr)]) {
        seen[static_cast<std::size_t>(nbr)] = true;
        bfs.push_back(nbr);
      }
    }
  }
  return host_seen == hs.size();
}

}  // namespace gfc::topo
