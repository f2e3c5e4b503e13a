// Mid-run link failures: take full-duplex links down and up at scheduled
// instants. On every transition the scheduler flips the Network link
// state, lets the caller recompute routing (on_change callback), then asks
// switches to re-route packets stranded behind dead egresses — the runtime
// counterpart of the static failure sets in Table 1 / Figure 11.
#pragma once

#include <functional>

#include "net/network.hpp"
#include "sim/time.hpp"

namespace gfc::fault {

struct LinkEvent {
  sim::TimePs at = 0;
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  bool up = false;
};

class LinkScheduler {
 public:
  /// `on_change(ev)` runs after the link state flips and before stranded
  /// packets are re-routed — the place to recompute and install routing.
  explicit LinkScheduler(net::Network& net,
                         std::function<void(const LinkEvent&)> on_change = {});

  /// Schedule one transition (must be at or after the current instant).
  void schedule(const LinkEvent& ev);
  /// Convenience: down at `down_at`, back up at `up_at`.
  void schedule_flap(net::NodeId a, net::NodeId b, sim::TimePs down_at,
                     sim::TimePs up_at);

  int downs() const { return downs_; }
  int ups() const { return ups_; }

 private:
  void apply(const LinkEvent& ev);

  net::Network& net_;
  std::function<void(const LinkEvent&)> on_change_;
  int downs_ = 0;
  int ups_ = 0;
};

}  // namespace gfc::fault
