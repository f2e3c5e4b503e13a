#include "net/switch.hpp"

#include <bit>
#include <cassert>
#include <cstdio>
#include <utility>

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
    overflowing_.resize(n);
    inq_.resize(n);
    outq_.resize(n);
    rr_.resize(n);
    assert(n <= 64 && "dispatch bitmasks assume <= 64 ports");
  }
}

void SwitchNode::set_route(NodeId dst,
                           std::span<const std::int32_t> out_ports) {
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
  const std::uint64_t salt = pkt.flow() >= 0 ? pkt.path_salt() : pkt.id;
  return candidates[ecmp_select(salt, id(), ref.n)];
}

void SwitchNode::head_targets(int in_port, std::vector<int>* out) const {
  out->clear();
  if (static_cast<std::size_t>(in_port) >= inq_.size()) return;
  // Input-queue heads wait on the egress their route selected.
  for (const PacketFifo& q : inq_[static_cast<std::size_t>(in_port)])
    if (!q.empty()) out->push_back(q.front()->out_port);
  // Already-dispatched packets wait inside their egress output queue.
  for (std::size_t e = 0; e < outq_.size(); ++e) {
    bool holds = false;
    for (int prio = 0; prio < kNumPriorities && !holds; ++prio)
      for (const Packet* p = outq_[e].fifo(prio).front(); p != nullptr;
           p = p->next)
        if (p->ingress_port == in_port) {
          holds = true;
          break;
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
    // test asserts this counter stays zero. The warning prints once per
    // overflow episode; release_ingress re-arms it.
    ++network().counters().lossless_violations;
    std::uint8_t& episode = overflowing_[static_cast<std::size_t>(in_port)];
    const auto bit = static_cast<std::uint8_t>(1u << pkt.priority);
    if ((episode & bit) == 0) {
      episode |= bit;
      std::fprintf(stderr,
                   "[WARN] %s: ingress buffer overflow on port %d prio %d "
                   "(%lld > %lld)\n",
                   name().c_str(), in_port, pkt.priority,
                   static_cast<long long>(bytes),
                   static_cast<long long>(buffer_));
    }
  }
  pkt.ingress_port = in_port;
  network().trace_event(trace::EventType::kIngressEnqueue, id(), in_port,
                        pkt.priority, pkt.id, bytes);
}

void SwitchNode::maybe_mark_ecn(Packet& pkt, int in_port) {
  if (ecn_.threshold > 0 &&
      ingress_bytes(in_port, pkt.priority) > ecn_.threshold)
    pkt.ecn_ce = true;
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
  const PacketFifo* q = nullptr;
  if (arch_ == SwitchArch::kOutputQueuedFifo) {
    outq_[static_cast<std::size_t>(out)].push(pkt);
    q = &outq_[static_cast<std::size_t>(out)].fifo(pkt->priority);
  } else {
    PacketFifo& in = inq_[static_cast<std::size_t>(in_port)]
                         [static_cast<std::size_t>(pkt->priority)];
    in.push_back(pkt);
    q = &in;
  }
  if (fc()) fc()->on_ingress_enqueue(in_port, pkt->priority, *pkt);
  // Only a fresh head can unblock anything.
  if (q->front() == pkt) wake_egress(out);
}

void SwitchNode::dispatch(int seed_egress) {
  const int ports = port_count();
  std::uint64_t pending = 1ull << static_cast<unsigned>(seed_egress);
  std::uint64_t kicked = 0;
  while (pending != 0) {
    const int e = __builtin_ctzll(pending);
    pending &= pending - 1;
    int& cursor = rr_[static_cast<std::size_t>(e)].in;
    PrioQueues& oqs = outq_[static_cast<std::size_t>(e)];
    for (int prio = 0; prio < kNumPriorities; ++prio) {
      if ((active_prios_ & (1u << prio)) == 0) continue;
      const PacketFifo& oq = oqs.fifo(prio);
      // Admit competing input-queue heads round-robin while there is room.
      bool progress = true;
      while (progress) {
        progress = false;
        for (int step = 0; step < ports; ++step) {
          int in = cursor + step;
          if (in >= ports) in -= ports;  // cursor + step < 2*ports
          PacketFifo& q =
              inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
          if (q.empty() || q.front()->out_port != e) continue;
          Packet* head = q.front();
          // Head-of-line rule: a full output queue blocks this whole input
          // FIFO (for this priority). An empty output queue always accepts.
          if (!oq.empty() && oq.bytes() + head->size_bytes > kEgressQueueCap)
            break;
          oqs.push(q.pop_front());
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
  // Wake receiving egresses after the current call stack (this may run
  // inside one of their transmit paths) unwinds.
  if (kicked == 0) return;
  sched_ref().schedule_in(0, [this, kicked]() mutable {
    for (; kicked != 0; kicked &= kicked - 1)
      port(std::countr_zero(kicked)).kick();
  });
}

void SwitchNode::wake_egress(int egress) {
  if (arch_ == SwitchArch::kCioqRoundRobin) {
    dispatch(egress);
  } else {
    port(egress).kick();
  }
}

Packet* SwitchNode::poll_data(int egress_port, sim::TimePs now,
                              sim::TimePs* wake_at, bool consume,
                              bool* any_waiting) {
  ensure_tables();
  TxGate& gate = port(egress_port).gate();
  if (arch_ != SwitchArch::kInputQueued) {
    Packet* head = outq_[static_cast<std::size_t>(egress_port)].poll(
        gate, now, wake_at, consume, any_waiting);
    if (head != nullptr && consume && arch_ == SwitchArch::kCioqRoundRobin)
      dispatch(egress_port);  // freed room: pull waiting input heads in
    return head;
  }

  // Pure input-queued (ablation): pull competing input heads directly.
  EgressRr& rr = rr_[static_cast<std::size_t>(egress_port)];
  const int ports = port_count();
  for (int pstep = 0; pstep < kNumPriorities; ++pstep) {
    const int prio = (rr.prio + pstep) % kNumPriorities;
    if ((active_prios_ & (1u << prio)) == 0) continue;
    for (int istep = 0; istep < ports; ++istep) {
      int in = rr.in + istep;
      if (in >= ports) in -= ports;  // rr.in + istep < 2*ports
      PacketFifo& q =
          inq_[static_cast<std::size_t>(in)][static_cast<std::size_t>(prio)];
      if (q.empty()) continue;
      Packet* head = q.front();
      if (head->out_port != egress_port) continue;
      *any_waiting = true;
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
  if (bytes <= buffer_)
    overflowing_[static_cast<std::size_t>(in_port)] &=
        static_cast<std::uint8_t>(~(1u << pkt.priority));
  pkt.ingress_port = -1;
  pkt.out_port = -1;
  network().trace_event(trace::EventType::kIngressDequeue, id(), in_port,
                        pkt.priority, pkt.id, bytes);
  if (fc()) fc()->on_ingress_dequeue(in_port, pkt.priority, pkt);
}

void SwitchNode::on_departure(Packet& pkt, int /*out_port*/) {
  release_ingress(pkt);
}

void SwitchNode::discard(Packet* pkt) {
  network().trace_event(trace::EventType::kDrop, id(), pkt->out_port,
                        pkt->priority, pkt->id, pkt->size_bytes);
  release_ingress(*pkt);
  network().free_packet(pkt);
}

void SwitchNode::reroute_stranded() {
  ensure_tables();
  const int ports = port_count();
  std::uint64_t kicked = 0;
  // New ECMP choice for a packet whose egress is down; false once it has
  // been dropped for want of a live route.
  const auto retarget = [this, &kicked](Packet* p) {
    const int out = route_for(*p);
    if (out < 0 || !port(out).link_up()) {
      ++network().counters().failover_drops;
      discard(p);
      return false;
    }
    p->out_port = out;
    kicked |= 1ull << static_cast<unsigned>(out);
    return true;
  };
  // Output queues behind dead links: requeue everything on the freshly
  // routed egress (arrival order preserved within each queue).
  for (int e = 0; e < ports; ++e) {
    if (port(e).link_up()) continue;
    PrioQueues& dead = outq_[static_cast<std::size_t>(e)];
    for (int prio = 0; prio < kNumPriorities; ++prio)
      while (!dead.fifo(prio).empty()) {
        Packet* p = dead.pop(prio);
        if (retarget(p)) outq_[static_cast<std::size_t>(p->out_port)].push(p);
      }
  }
  // Input-FIFO entries targeting dead egresses: retarget in place.
  for (auto& fifos : inq_) {
    for (PacketFifo& q : fifos) {
      PacketFifo waiting = std::exchange(q, PacketFifo{});
      while (!waiting.empty()) {
        Packet* p = waiting.pop_front();
        if (p->out_port >= 0 && !port(p->out_port).link_up() && !retarget(p))
          continue;
        q.push_back(p);
      }
    }
  }
  for (; kicked != 0; kicked &= kicked - 1) {
    const int e = std::countr_zero(kicked);
    // CIOQ pulls retargeted input heads in, but a dispatch kicks only an
    // egress it moved packets to; requeued output packets need the kick
    // either way.
    if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(e);
    port(e).kick();
  }
}

std::uint64_t SwitchNode::drain_egress(int egress) {
  ensure_tables();
  std::uint64_t dropped = 0;
  PrioQueues& oq = outq_[static_cast<std::size_t>(egress)];
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    while (!oq.fifo(prio).empty()) {
      discard(oq.pop(prio));
      ++dropped;
    }
  }
  // Input-FIFO heads wedged on this egress (CIOQ / input-queued archs).
  std::uint64_t kicked = 0;
  for (auto& fifos : inq_) {
    for (PacketFifo& q : fifos) {
      while (!q.empty() && q.front()->out_port == egress) {
        discard(q.pop_front());
        ++dropped;
      }
      if (!q.empty())
        kicked |= 1ull << static_cast<unsigned>(q.front()->out_port);
    }
  }
  if (dropped == 0) return 0;
  if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
  for (; kicked != 0; kicked &= kicked - 1)
    wake_egress(std::countr_zero(kicked));
  return dropped;
}

std::uint64_t SwitchNode::drop_egress_head(int egress) {
  ensure_tables();
  PrioQueues& oq = outq_[static_cast<std::size_t>(egress)];
  for (int prio = 0; prio < kNumPriorities; ++prio) {
    if (oq.fifo(prio).empty()) continue;
    discard(oq.pop(prio));
    if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
    return 1;
  }
  // No output-queued packet: drop an input-FIFO head wedged on this egress.
  for (auto& fifos : inq_) {
    for (PacketFifo& q : fifos) {
      if (q.empty() || q.front()->out_port != egress) continue;
      discard(q.pop_front());
      if (!q.empty() && q.front()->out_port != egress)
        wake_egress(q.front()->out_port);
      if (arch_ == SwitchArch::kCioqRoundRobin) dispatch(egress);
      return 1;
    }
  }
  return 0;
}

}  // namespace gfc::net
