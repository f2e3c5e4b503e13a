#include "fault/link_scheduler.hpp"

#include <cassert>

namespace gfc::fault {

LinkScheduler::LinkScheduler(net::Network& net,
                             std::function<void(const LinkEvent&)> on_change)
    : net_(net), on_change_(std::move(on_change)) {}

void LinkScheduler::schedule(const LinkEvent& ev) {
  assert(ev.at >= net_.sched().now());
  net_.sched().schedule_at(ev.at, [this, ev] { apply(ev); });
}

void LinkScheduler::schedule_flap(net::NodeId a, net::NodeId b,
                                  sim::TimePs down_at, sim::TimePs up_at) {
  assert(down_at < up_at);
  schedule(LinkEvent{down_at, a, b, /*up=*/false});
  schedule(LinkEvent{up_at, a, b, /*up=*/true});
}

void LinkScheduler::apply(const LinkEvent& ev) {
  net_.set_link_state(ev.a, ev.b, ev.up);
  if (ev.up) {
    ++ups_;
  } else {
    ++downs_;
  }
  if (on_change_) on_change_(ev);
  // Move stranded packets after routing settled; for an `up` transition the
  // pass is a no-op unless other links are still down.
  if (!ev.up) net_.reroute_stranded();
}

}  // namespace gfc::fault
