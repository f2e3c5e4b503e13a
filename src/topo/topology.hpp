// Abstract topology graph: hosts + switches + (failable) links.
//
// Node indices here become the net::NodeId values when a Fabric realizes
// the topology, so routing tables and CBD analysis can be computed offline
// and installed verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gfc::topo {

using NodeIndex = std::int32_t;
using LinkIndex = std::int32_t;

struct TopoNode {
  std::string name;
  bool is_host = false;
  int layer = 0;  // builder-specific label (fat-tree: 0=host,1=edge,2=agg,3=core)
  int pod = -1;   // builder-specific grouping (fat-tree pod / rack group)
};

struct TopoLink {
  NodeIndex a = -1;
  NodeIndex b = -1;
  bool up = true;
};

class Topology {
 public:
  NodeIndex add_host(std::string name, int pod = -1);
  NodeIndex add_switch(std::string name, int layer = 1, int pod = -1);
  LinkIndex add_link(NodeIndex a, NodeIndex b);

  void fail_link(LinkIndex l) {
    links_[static_cast<std::size_t>(l)].up = false;
    adj_dirty_ = true;
  }
  void restore_link(LinkIndex l) {
    links_[static_cast<std::size_t>(l)].up = true;
    adj_dirty_ = true;
  }
  void restore_all();

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  const TopoNode& node(NodeIndex i) const { return nodes_[static_cast<std::size_t>(i)]; }
  const TopoLink& link(LinkIndex l) const { return links_[static_cast<std::size_t>(l)]; }

  bool is_host(NodeIndex i) const { return node(i).is_host; }
  /// Host and switch node indices, ascending.
  const std::vector<NodeIndex>& hosts() const { return hosts_; }
  const std::vector<NodeIndex>& switches() const { return switches_; }
  /// Links whose both endpoints are switches (failure candidates).
  std::vector<LinkIndex> switch_links() const;

  /// Neighbors over *up* links: (neighbor, link index) pairs.
  const std::vector<std::pair<NodeIndex, LinkIndex>>& neighbors(NodeIndex i) const;

  /// The edge switch a host hangs off (its "rack"); -1 if disconnected.
  NodeIndex rack_of(NodeIndex host) const;

  /// Are all hosts mutually reachable over up links?
  bool hosts_connected() const;

 private:
  void rebuild_adjacency() const;

  std::vector<TopoNode> nodes_;
  std::vector<NodeIndex> hosts_;
  std::vector<NodeIndex> switches_;
  std::vector<TopoLink> links_;
  mutable std::vector<std::vector<std::pair<NodeIndex, LinkIndex>>> adj_;
  mutable bool adj_dirty_ = true;
};

}  // namespace gfc::topo
