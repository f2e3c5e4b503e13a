#include "cc/dcqcn.hpp"

#include <algorithm>

namespace gfc::cc {

void DcqcnModule::on_flow_start(net::Flow& flow) {
  FlowState st;
  st.line = net_.host(flow.src)->port(0).line_rate();
  st.rc = st.line;
  st.rt = st.line;
  st.alpha = cfg_.alpha_init;
  state_[flow.id] = st;
  flow.send_rate = st.line;
}

void DcqcnModule::apply_rate(net::Flow& flow, FlowState& st) {
  if (st.rc > st.line) st.rc = st.line;
  if (st.rc < cfg_.min_rate) st.rc = cfg_.min_rate;
  if (st.rt > st.line) st.rt = st.line;
  flow.send_rate = st.rc;
  net_.host(flow.src)->notify_rate_change(flow.id);
}

void DcqcnModule::arm_alpha_timer(net::FlowId id) {
  FlowState& st = state_[id];
  if (st.alpha_ev.valid()) net_.sched().cancel(st.alpha_ev);
  st.alpha_ev = net_.sched().schedule_in(cfg_.alpha_timer, [this, id] {
    auto it = state_.find(id);
    if (it == state_.end()) return;
    it->second.alpha *= (1.0 - cfg_.g);
    it->second.alpha_ev = {};
    arm_alpha_timer(id);
  });
}

void DcqcnModule::arm_increase_timer(net::FlowId id) {
  FlowState& st = state_[id];
  if (st.inc_ev.valid()) net_.sched().cancel(st.inc_ev);
  st.inc_ev = net_.sched().schedule_in(cfg_.increase_timer, [this, id] {
    auto it = state_.find(id);
    if (it == state_.end()) return;
    it->second.inc_ev = {};
    ++it->second.t_stage;
    do_increase(net_.flow(id), it->second);
    arm_increase_timer(id);
  });
}

void DcqcnModule::do_increase(net::Flow& flow, FlowState& st) {
  const int f = cfg_.fast_recovery_threshold;
  if (st.t_stage < f && st.b_stage < f) {
    // Fast recovery: close half the gap to the target.
  } else if (st.t_stage >= f && st.b_stage >= f) {
    st.rt = sim::Rate{st.rt.bps + cfg_.rhai.bps};  // hyper increase
  } else {
    st.rt = sim::Rate{st.rt.bps + cfg_.rai.bps};  // additive increase
  }
  st.rc = sim::Rate{(st.rt.bps + st.rc.bps) / 2};
  apply_rate(flow, st);
}

void DcqcnModule::on_data_sent(net::HostNode&, net::Flow& flow,
                               const net::Packet& pkt) {
  auto it = state_.find(flow.id);
  if (it == state_.end() || !it->second.cut_seen) return;
  FlowState& st = it->second;
  st.bytes += pkt.size_bytes;
  if (st.bytes >= cfg_.byte_counter) {
    st.bytes -= cfg_.byte_counter;
    ++st.b_stage;
    do_increase(flow, st);
  }
}

void DcqcnModule::on_data_received(net::HostNode& rx, net::Flow& flow,
                                   const net::Packet& pkt) {
  if (!pkt.ecn_ce) return;
  const sim::TimePs now = net_.sched().now();
  auto [it, fresh] = last_cnp_sent_.try_emplace(flow.id, sim::TimePs{-1});
  if (!fresh && it->second >= 0 && now - it->second < cfg_.cnp_interval) return;
  it->second = now;
  net::Packet* cnp = net_.pool().acquire();
  cnp->type = net::PacketType::kCnp;
  cnp->priority = cfg_.cnp_priority;
  cnp->size_bytes = net::kControlFrameBytes;
  cnp->src = rx.id();
  cnp->dst = flow.src;
  cnp->set_flow(flow.id, flow.path_salt);
  cnp->created_at = now;
  ++cnps_sent_;
  rx.inject(cnp);
}

void DcqcnModule::on_cnp(net::HostNode&, net::Flow& flow, const net::Packet&) {
  auto it = state_.find(flow.id);
  if (it == state_.end()) return;
  FlowState& st = it->second;
  st.rt = st.rc;
  st.rc = st.rc * (1.0 - st.alpha / 2.0);
  st.alpha = (1.0 - cfg_.g) * st.alpha + cfg_.g;
  st.t_stage = 0;
  st.b_stage = 0;
  st.bytes = 0;
  st.cut_seen = true;
  apply_rate(flow, st);
  arm_alpha_timer(flow.id);
  arm_increase_timer(flow.id);
}

sim::Rate DcqcnModule::current_rate(net::FlowId id) const {
  auto it = state_.find(id);
  return it == state_.end() ? sim::Rate{0} : it->second.rc;
}

}  // namespace gfc::cc
