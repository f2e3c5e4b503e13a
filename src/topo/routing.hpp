// Shortest-path-first routing with ECMP, exactly the algorithm named in
// the paper's evaluation, plus the constrained clockwise routing that the
// Figure 1 ring scenario needs.
//
// Tables are keyed by destination class. Hosts never transit traffic, so
// hosts behind the same switches are routed to identically and share one
// column: a row of next hops for every node. The columns are stored once,
// back to back, in compressed-sparse-row form (one offsets array, one hops
// array), with a host -> class map. A fat-tree has one class per edge
// switch (8 for 16 hosts at k=4, 128 for 1,024 at k=16).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "topo/builders.hpp"
#include "topo/topology.hpp"

namespace gfc::topo {

class RoutingTable {
 public:
  /// A row entry meaning "the destination itself": the last hop in a
  /// column several hosts share. next_hops() resolves it to `dst`.
  static constexpr NodeIndex kDeliver = -1;

  /// A class's column as stored: row `at` is hops[offsets[at] - offsets[0],
  /// offsets[at + 1] - offsets[0]), kDeliver unresolved.
  struct Column {
    std::span<const std::uint32_t> offsets;  // node_count() + 1 entries
    std::span<const NodeIndex> hops;
  };

  class Builder;

  RoutingTable() = default;

  /// Equal-cost next-hop *nodes* from `at` toward destination host `dst`;
  /// empty when `at == dst` or `at` has no route.
  std::span<const NodeIndex> next_hops(NodeIndex at, NodeIndex dst) const {
    const auto d = static_cast<std::size_t>(dst);
    if (at == dst || d >= dest_.size() || dest_[d].cls < 0) return {};
    const std::span<const NodeIndex> hops =
        stored_row(static_cast<std::size_t>(dest_[d].cls), at);
    if (hops.size() == 1 && hops[0] == kDeliver)
      return {&members_[dest_[d].slot], 1};
    return hops;
  }

  /// The exact node sequence a flow with `salt` follows (replicates the
  /// switch data-path ECMP hash). Empty if unroutable or a loop is hit.
  std::vector<NodeIndex> trace(NodeIndex src, NodeIndex dst,
                               std::uint64_t salt) const;

  bool routable(NodeIndex src, NodeIndex dst) const {
    return !next_hops(src, dst).empty();
  }

  std::size_t node_count() const { return n_; }

  /// Classes are numbered in order of their first member in hosts().
  std::size_t class_count() const { return member_offsets_.size() - 1; }
  /// `dst`'s class, or -1 for a node no column serves.
  std::int32_t class_of(NodeIndex dst) const {
    return dest_[static_cast<std::size_t>(dst)].cls;
  }
  /// Class `c`'s destination hosts, ascending.
  std::span<const NodeIndex> members(std::size_t c) const {
    return std::span<const NodeIndex>(members_).subspan(
        member_offsets_[c], member_offsets_[c + 1] - member_offsets_[c]);
  }
  /// `at`'s row in class `c`'s column, kDeliver resolved to the class's
  /// first member. Unlike next_hops(), a member's own row is returned as
  /// well: the row every other member sees (empty in a one-member class).
  std::span<const NodeIndex> row(std::size_t c, NodeIndex at) const {
    const std::span<const NodeIndex> hops = stored_row(c, at);
    if (hops.size() == 1 && hops[0] == kDeliver)
      return {&members_[member_offsets_[c]], 1};
    return hops;
  }
  Column column(std::size_t c) const {
    const std::span<const std::uint32_t> off =
        std::span<const std::uint32_t>(offsets_).subspan(c * n_, n_ + 1);
    return {off, std::span<const NodeIndex>(hops_).subspan(
                     off.front(), off.back() - off.front())};
  }

 private:
  struct Dest {
    std::int32_t cls = -1;
    std::uint32_t slot = 0;  // position in members_
  };

  std::span<const NodeIndex> stored_row(std::size_t c, NodeIndex at) const {
    const std::size_t r = c * n_ + static_cast<std::size_t>(at);
    return std::span<const NodeIndex>(hops_).subspan(
        offsets_[r], offsets_[r + 1] - offsets_[r]);
  }

  std::size_t n_ = 0;
  /// Row (c, at) is hops_[offsets_[c * n_ + at], offsets_[c * n_ + at + 1]).
  std::vector<std::uint32_t> offsets_{0};
  std::vector<NodeIndex> hops_;
  std::vector<Dest> dest_;  // per node
  std::vector<std::uint32_t> member_offsets_{0};
  std::vector<NodeIndex> members_;
};

/// The one way to fill a RoutingTable: open each class in turn, then set
/// its rows in ascending node order (rows never set stay empty).
class RoutingTable::Builder {
 public:
  explicit Builder(std::size_t node_count, std::size_t class_hint = 0);

  /// Open the next class's column, serving destination hosts `members`
  /// (ascending). Classes open in ascending order of their first member.
  void begin_class(std::span<const NodeIndex> members);
  /// Set `at`'s row in the open column. In a one-member class kDeliver
  /// becomes the member and the member's own row is dropped. In a larger
  /// class kDeliver must be a row's only hop, and every member's own row
  /// must hold the same switches (the closure and the lints read one
  /// member's view for all of them).
  void set_row(NodeIndex at, std::span<const NodeIndex> hops);
  void set_row(NodeIndex at, std::initializer_list<NodeIndex> hops) {
    set_row(at, std::span<const NodeIndex>(hops.begin(), hops.size()));
  }
  RoutingTable finish() &&;

 private:
  void close_rows(std::size_t end);

  RoutingTable t_;
  std::size_t next_row_ = 0;  // rows [0, next_row_) of the open column are set
  bool open_ = false;
};

/// Destination hosts grouped by their set of up attachment switches, in
/// order of their first member: the classes compute_shortest_paths and
/// mech::cbd_free_routes build. A host with two up links to one switch
/// is a class of its own (its last hop is listed once per link).
struct HostClasses {
  std::vector<std::uint32_t> offsets{0};
  std::vector<NodeIndex> members;  // ascending within a class

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const NodeIndex> operator[](std::size_t c) const {
    return std::span<const NodeIndex>(members).subspan(
        offsets[c], offsets[c + 1] - offsets[c]);
  }
};
HostClasses attachment_classes(const Topology& topo);

/// BFS all-shortest-paths toward every destination class, over up links.
RoutingTable compute_shortest_paths(const Topology& topo);

/// Ring scenario: every switch forwards non-local destinations clockwise
/// (S_i -> S_{i+1}). This pinned routing is what creates the cyclic buffer
/// dependency of Figure 1.
RoutingTable ring_clockwise_routes(const Topology& topo, const RingInfo& ring);

}  // namespace gfc::topo
