#include "net/switch.hpp"

#include <bit>
#include <cassert>
#include <cstdio>

#include "net/ecmp.hpp"
#include "net/network.hpp"

namespace gfc::net {

SwitchNode::SwitchNode(Network& net, NodeId id, std::string name,
                       std::int64_t ingress_buffer_bytes)
    : Node(net, id, std::move(name)), buffer_(ingress_buffer_bytes) {}

void SwitchNode::ensure_tables() {
  const auto n = static_cast<std::size_t>(port_count());
  if (ingress_bytes_.size() < n) {
    ingress_bytes_.resize(n);
    inq_.resize(n);
    outq_.resize(n);
    outq_bytes_.resize(n);
    rr_.resize(n);
    arb_rr_.resize(n, 0);
    assert(n <= 64 && "dispatch bitmasks assume <= 64 ports");
  }
}

void SwitchNode::set_route(NodeId dst, std::vector<std::int32_t> out_ports) {
  const auto idx = static_cast<std::size_t>(dst);
  if (route_ref_.size() <= idx) route_ref_.resize(idx + 1);
  route_ref_[idx] = RouteRef{static_cast<std::uint32_t>(route_slots_.size()),
                             static_cast<std::uint32_t>(out_ports.size())};
  route_slots_.insert(route_slots_.end(), out_ports.begin(), out_ports.end());
}

void SwitchNode::clear_routes() {
  route_ref_.clear();
  route_slots_.clear();
}

int SwitchNode::route_for(const Packet& pkt) const {
  const auto idx = static_cast<std::size_t>(pkt.dst);
  if (idx >= route_ref_.size()) return -1;
  const RouteRef ref = route_ref_[idx];
  if (ref.n == 0) return -1;
  const std::int32_t* candidates = route_slots_.data() + ref.off;
  if (ref.n == 1) return candidates[0];
  // Deterministic ECMP: hash the flow's path salt with this switch's id so
  // consecutive hops don't make correlated choices. Flowless packets
  // (should not occur for routed traffic) fall back to their packet id.
  const std::uint64_t salt = pkt.flow >= 0 ? pkt.path_salt : pkt.id;
  return candidates[ecmp_select(salt, id(), ref.n)];
}

std::int64_t SwitchNode::ingress_bytes_total(int port) const {
  std::int64_t sum = 0;
  for (std::int64_t b : ingress_bytes_[static_cast<std::size_t>(port)]) sum += b;
  return sum;
}

void SwitchNode::head_targets(int in_port, std::vector<int>* out) const {
  out->clear();
  if (static_cast<std::size_t>(in_port) >= inq_.size()) return;
  // Input-queue heads wait on the egress their route selected.
  for (const auto& q : inq_[static_cast<std::size_t>(in_port)])
    if (!q.empty()) out->push_back(q.front()->out_port);
  // Already-dispatched packets wait inside their egress output queue.
  for (std::size_t e = 0; e < outq_.size(); ++e) {
    bool holds = false;
    for (const auto& q : outq_[e]) {
      for (const Packet* p : q)
        if (p->ingress_port == in_port) {
          holds = true;
          break;
        }
      if (holds) break;
    }
    if (holds) out->push_back(static_cast<int>(e));
  }
}

void SwitchNode::account_enqueue(Packet& pkt, int in_port) {
  auto& bytes = ingress_bytes_[static_cast<std::size_t>(in_port)]
                              [static_cast<std::size_t>(pkt.priority)];
  bytes += pkt.size_bytes;
  if (bytes > buffer_) {
    // Lossless invariant violated: a real switch would have dropped. We
    // keep the packet (the sim has memory) but record the violation; every
    // test asserts this counter stays zero.
    ++network().counters().lossless_violations;
    std::fprintf(stderr,
                 "[WARN] %s: ingress buffer overflow on port %d prio %d "
                 "(%lld > %lld)\n",
                 name().c_str(), in_port, pkt.priority,
                 static_cast<long long>(bytes), static_cast<long long>(buffer_));
  }
  pkt.ingress_port = in_port;
  network().trace_event(trace::EventType::kIngressEnqueue, id(), in_port,
                        pkt.priority, pkt.id, bytes);
}

void SwitchNode::maybe_mark_ecn(Packet& pkt, int in_port) {
  if (!ecn_.enabled) return;
  const std::int64_t q = ingress_bytes(in_port, pkt.priority);
  if (q <= ecn_.kmin) return;
  if (q >= ecn_.kmax) {
    if (ecn_.pmax >= 1.0 || network().rng().chance(ecn_.pmax)) pkt.ecn_ce = true;
    return;
  }
  const double p = ecn_.pmax * static_cast<double>(q - ecn_.kmin) /
                   static_cast<double>(ecn_.kmax - ecn_.kmin);
  if (network().rng().chance(p)) pkt.ecn_ce = true;
}

void SwitchNode::receive(Packet* pkt, int in_port) {
  if (pkt->is_control()) {
    deliver_control(pkt, in_port);
    return;
  }
  ensure_tables();
  const int out = route_for(*pkt);
  if (out < 0) {
    ++network().counters().route_drops;
    std::fprintf(stderr, "[ERROR] %s: no route for dst %d, dropping\n",
                 name().c_str(), pkt->dst);
    network().trace_event(trace::EventType::kDrop, id(), in_port,
                          pkt->priority, pkt->id, pkt->size_bytes);
    network().free_packet(pkt);
    return;
  }
  pkt->out_port = out;
  account_enqueue(*pkt, in_port);
  maybe_mark_ecn(*pkt, in_port);
  active_prios_ |= 1u << pkt->priority;
  // Output-queued: straight into the egress FIFO, arrival order.
  auto& q = arch_ == SwitchArch::kOutputQueuedFifo
                ? outq_[static_cast<std::size_t>(out)]
                       [static_cast<std::size_t>(pkt->priority)]
                : inq_[static_cast<std::size_t>(in_port)]
                      [static_cast<std::size_t>(pkt->priority)];
  q.push_back(pkt);
  if (arch_ == SwitchArch::kOutputQueuedFifo)
    outq_bytes_[static_cast<std::size_t>(out)]
               [static_cast<std::size_t>(pkt->priority)] += pkt->size_bytes;
  if (fc()) fc()->on_ingress_enqueue(in_port, pkt->priority, *pkt);
  // Only a fresh head can unblock anything.
  if (q.size() == 1) {
    if (arch_ == SwitchArch::kCioqRoundRobin) {
      dispatch(out);
    } else {
      port(out).kick();
    }
  }
}

void SwitchNode::dispatch(int seed_egress) {
  const int ports = port_count();
  std::uint64_t pending = 1ull << static_cast<unsigned>(seed_egress);
  std::uint64_t kicked = 0;
  while (pending != 0) {
    const int e = __builtin_ctzll(pending);
    pending &= pending - 1;
    auto& cursor = arb_rr_[static_cast<std::size_t>(e)];
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      if ((active_prios_ & (1u << prio)) == 0) continue;
      auto& oq = outq_[static_cast<std::size_t>(e)][static_cast<std::size_t>(prio)];
      auto& ob = outq_bytes_[static_cast<std::size_t>(e)][static_cast<std::size_t>(prio)];
      // Admit competing input-queue heads round-robin while there is room.
      bool progress = true;
      while (progress) {
        progress = false;
        for (int step = 0; step < ports; ++step) {
          int in = cursor + step;
          if (in >= ports) in -= ports;  // cursor + step < 2*ports
          auto& q =
              inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
          if (q.empty() || q.front()->out_port != e) continue;
          Packet* head = q.front();
          // Head-of-line rule: a full output queue blocks this whole input
          // FIFO (for this priority). An empty output queue always accepts.
          if (!oq.empty() && ob + head->size_bytes > kEgressQueueCap) break;
          q.pop_front();
          oq.push_back(head);
          ob += head->size_bytes;
          kicked |= 1ull << static_cast<unsigned>(e);
          cursor = in + 1 == ports ? 0 : in + 1;
          progress = true;
          // The freed input FIFO may now offer a head to another egress.
          if (!q.empty() && q.front()->out_port != e)
            pending |= 1ull << static_cast<unsigned>(q.front()->out_port);
          break;
        }
      }
    }
  }
  if (kicked != 0) {
    // Wake receiving egresses after the current call stack (this may run
    // inside one of their transmit paths) unwinds. Each dispatch queues its
    // own mask and fires the shared kick timer at `now`: firings execute in
    // fire_at (sequence) order and the masks pop FIFO, so each firing sees
    // exactly the mask the per-firing closure used to capture.
    if (!kick_timer_.valid())
      kick_timer_ = sched_ref().register_timer([this] { fire_kicks(); });
    kick_masks_.push_back(kicked);
    sched_ref().fire_at(kick_timer_, sched_ref().now());
  }
}

void SwitchNode::fire_kicks() {
  const std::uint64_t kicked = kick_masks_.front();
  kick_masks_.pop_front();
  for (int e = 0; e < port_count(); ++e)
    if (kicked & (1ull << static_cast<unsigned>(e))) port(e).kick();
}

Packet* SwitchNode::poll_data(int egress_port, sim::TimePs now,
                              sim::TimePs* wake_at, bool consume,
                              bool* any_waiting) {
  ensure_tables();
  EgressRr& rr = rr_[static_cast<std::size_t>(egress_port)];
  TxGate& gate = port(egress_port).gate();

  if (arch_ != SwitchArch::kInputQueued) {
    // Walk active_prios_ set bits in rr order (bit k of the rotated mask is
    // priority rr.prio + k) — same visit order as the full 8-step scan.
    std::uint32_t prot = ((active_prios_ >> rr.prio) |
                          (active_prios_ << (kNumPriorities - rr.prio))) &
                         ((1u << kNumPriorities) - 1);
    while (prot != 0) {
      const int pstep = std::countr_zero(prot);
      prot &= prot - 1;
      const int prio = (rr.prio + pstep) % kNumPriorities;
      auto& q = outq_[static_cast<std::size_t>(egress_port)]
                     [static_cast<std::size_t>(prio)];
      if (q.empty()) continue;
      Packet* head = q.front();
      if (any_waiting != nullptr) *any_waiting = true;
      if (!gate.allowed(*head, now, wake_at)) continue;
      if (!consume) return head;
      q.pop_front();
      outq_bytes_[static_cast<std::size_t>(egress_port)]
                 [static_cast<std::size_t>(prio)] -= head->size_bytes;
      rr.prio = (prio + 1) % kNumPriorities;
      if (arch_ == SwitchArch::kCioqRoundRobin)
        dispatch(egress_port);  // freed room: pull waiting input heads in
      return head;
    }
    return nullptr;
  }

  // Pure input-queued (ablation): pull competing input heads directly.
  const int ports = port_count();
  for (int pstep = 0; pstep < kNumPriorities; ++pstep) {
    const int prio = (rr.prio + pstep) % kNumPriorities;
    if ((active_prios_ & (1u << prio)) == 0) continue;
    for (int istep = 0; istep < ports; ++istep) {
      int in = rr.in + istep;
      if (in >= ports) in -= ports;  // rr.in + istep < 2*ports
      auto& q = inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
      if (q.empty()) continue;
      Packet* head = q.front();
      if (head->out_port != egress_port) continue;
      if (any_waiting != nullptr) *any_waiting = true;
      if (!gate.allowed(*head, now, wake_at)) continue;  // HOL: FIFO waits
      if (!consume) return head;
      q.pop_front();
      rr.in = in + 1 == ports ? 0 : in + 1;
      rr.prio = (prio + 1) % kNumPriorities;
      if (!q.empty() && q.front()->out_port != egress_port) {
        // The new head targets a different egress; wake it once the current
        // call stack (which is inside that port's transmit path) unwinds.
        const int next_egress = q.front()->out_port;
        sched_ref().schedule_in(
            0, [this, next_egress] { port(next_egress).kick(); });
      }
      return head;
    }
  }
  return nullptr;
}

void SwitchNode::release_ingress(Packet& pkt) {
  assert(pkt.ingress_port >= 0);
  const int in_port = pkt.ingress_port;
  auto& bytes = ingress_bytes_[static_cast<std::size_t>(in_port)]
                              [static_cast<std::size_t>(pkt.priority)];
  bytes -= pkt.size_bytes;
  assert(bytes >= 0);
  pkt.ingress_port = -1;
  pkt.out_port = -1;
  network().trace_event(trace::EventType::kIngressDequeue, id(), in_port,
                        pkt.priority, pkt.id, bytes);
  if (fc()) fc()->on_ingress_dequeue(in_port, pkt.priority, pkt);
}

void SwitchNode::on_departure(Packet& pkt, int /*out_port*/) {
  ++forwarded_packets_;
  release_ingress(pkt);
}

void SwitchNode::reroute_stranded() {
  ensure_tables();
  const int ports = port_count();
  std::uint64_t kicked = 0;
  const auto drop = [this](Packet* p) {
    ++network().counters().failover_drops;
    network().trace_event(trace::EventType::kDrop, id(), p->out_port,
                          p->priority, p->id, p->size_bytes);
    release_ingress(*p);
    network().free_packet(p);
  };
  // Output queues behind dead links: pull everything out and requeue on the
  // freshly routed egress (arrival order preserved within each queue).
  for (int e = 0; e < ports; ++e) {
    if (port(e).link_up()) continue;
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      auto& q = outq_[static_cast<std::size_t>(e)][static_cast<std::size_t>(prio)];
      if (q.empty()) continue;
      std::deque<Packet*> stranded;
      stranded.swap(q);
      outq_bytes_[static_cast<std::size_t>(e)][static_cast<std::size_t>(prio)] = 0;
      for (Packet* p : stranded) {
        const int out = route_for(*p);
        if (out < 0 || !port(out).link_up()) {
          drop(p);
          continue;
        }
        p->out_port = out;
        outq_[static_cast<std::size_t>(out)][static_cast<std::size_t>(prio)]
            .push_back(p);
        outq_bytes_[static_cast<std::size_t>(out)]
                   [static_cast<std::size_t>(prio)] += p->size_bytes;
        kicked |= 1ull << static_cast<unsigned>(out);
      }
    }
  }
  // Input-FIFO entries targeting dead egresses: retarget in place.
  for (int in = 0; in < ports; ++in) {
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      auto& q = inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
      for (std::size_t i = 0; i < q.size();) {
        Packet* p = q[i];
        if (p->out_port >= 0 && !port(p->out_port).link_up()) {
          const int out = route_for(*p);
          if (out < 0 || !port(out).link_up()) {
            drop(p);
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
          }
          p->out_port = out;
          kicked |= 1ull << static_cast<unsigned>(out);
        }
        ++i;
      }
    }
  }
  for (int e = 0; e < ports; ++e) {
    if ((kicked & (1ull << static_cast<unsigned>(e))) == 0) continue;
    if (arch_ == SwitchArch::kCioqRoundRobin) {
      dispatch(e);
    } else {
      port(e).kick();
    }
  }
}

std::uint64_t SwitchNode::drain_egress(int egress) {
  ensure_tables();
  std::uint64_t dropped = 0;
  const auto drop = [this, &dropped, egress](Packet* p) {
    network().trace_event(trace::EventType::kDrop, id(), egress, p->priority,
                          p->id, p->size_bytes);
    release_ingress(*p);
    network().free_packet(p);
    ++dropped;
  };
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    auto& q =
        outq_[static_cast<std::size_t>(egress)][static_cast<std::size_t>(prio)];
    while (!q.empty()) {
      Packet* p = q.front();
      q.pop_front();
      outq_bytes_[static_cast<std::size_t>(egress)]
                 [static_cast<std::size_t>(prio)] -= p->size_bytes;
      drop(p);
    }
  }
  // Input-FIFO heads wedged on this egress (CIOQ / input-queued archs).
  std::uint64_t kicked = 0;
  for (int in = 0; in < port_count(); ++in) {
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      auto& q = inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
      while (!q.empty() && q.front()->out_port == egress) {
        Packet* p = q.front();
        q.pop_front();
        drop(p);
      }
      if (!q.empty() && q.front()->out_port != egress)
        kicked |= 1ull << static_cast<unsigned>(q.front()->out_port);
    }
  }
  if (dropped == 0) return 0;
  if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
  for (int e = 0; e < port_count(); ++e)
    if (kicked & (1ull << static_cast<unsigned>(e))) port(e).kick();
  return dropped;
}

std::uint64_t SwitchNode::drop_egress_head(int egress) {
  ensure_tables();
  const auto drop = [this, egress](Packet* p) {
    network().trace_event(trace::EventType::kDrop, id(), egress, p->priority,
                          p->id, p->size_bytes);
    release_ingress(*p);
    network().free_packet(p);
  };
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    auto& q =
        outq_[static_cast<std::size_t>(egress)][static_cast<std::size_t>(prio)];
    if (q.empty()) continue;
    Packet* p = q.front();
    q.pop_front();
    outq_bytes_[static_cast<std::size_t>(egress)]
               [static_cast<std::size_t>(prio)] -= p->size_bytes;
    drop(p);
    if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
    return 1;
  }
  // No output-queued packet: drop an input-FIFO head wedged on this egress.
  for (int in = 0; in < port_count(); ++in) {
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      auto& q =
          inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
      if (q.empty() || q.front()->out_port != egress) continue;
      Packet* p = q.front();
      q.pop_front();
      drop(p);
      if (!q.empty() && q.front()->out_port != egress)
        port(q.front()->out_port).kick();
      if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
      return 1;
    }
  }
  return 0;
}

}  // namespace gfc::net
