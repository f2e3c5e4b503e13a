#include "runner/fabric.hpp"

#include <cassert>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "core/gfc_buffer.hpp"
#include "core/gfc_conceptual.hpp"
#include "core/gfc_time.hpp"
#include "flowctl/cbfc.hpp"
#include "flowctl/pfc.hpp"
#include "mech/dcfit.hpp"

namespace gfc::runner {

std::unique_ptr<net::FcModule> make_fc_module(const ScenarioConfig& cfg) {
  const FcSetup& fc = cfg.fc;
  switch (fc.kind) {
    case FcKind::kNone:
      return nullptr;
    case FcKind::kPfc:
      return std::make_unique<flowctl::PfcModule>(
          flowctl::PfcConfig{fc.xoff, fc.xon, fc.pfc_pause_timeout});
    case FcKind::kDcfit:
      // Classic PFC (indefinite pauses — pause_timeout stays 0 so the
      // deadlocks DCFIT exists to break can actually form) plus the
      // trigger machinery.
      return std::make_unique<mech::DcfitModule>(mech::DcfitConfig{
          flowctl::PfcConfig{fc.xoff, fc.xon, 0}, fc.dcfit_break,
          fc.dcfit_period});
    case FcKind::kCbfc: {
      flowctl::CbfcConfig c;
      c.period = fc.period;
      c.buffer_bytes = cfg.switch_buffer;
      c.sync_period = fc.cbfc_sync_period;
      return std::make_unique<flowctl::CbfcModule>(c);
    }
    case FcKind::kGfcBuffer:
      // Coalesce feedback to at most one frame per tau per (port, prio),
      // in line with the paper's one-per-tau worst-case analysis.
      return std::make_unique<core::GfcBufferModule>(
          core::MultiStageMapping(cfg.link.rate, fc.b1, fc.bm, fc.min_rate),
          cfg.tau());
    case FcKind::kGfcTime:
      return std::make_unique<core::GfcTimeModule>(
          core::LinearMapping(cfg.link.rate, fc.b0, fc.bm, fc.min_rate),
          fc.period);
    case FcKind::kGfcConceptual:
      return std::make_unique<core::GfcConceptualModule>(
          core::LinearMapping(cfg.link.rate, fc.b0, fc.bm, fc.min_rate),
          fc.conceptual_min_delta);
  }
  return nullptr;
}

Fabric::Fabric(const topo::Topology& topo, const ScenarioConfig& cfg)
    : cfg_(cfg) {
  if (cfg.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(cfg.trace);
    net_.set_tracer(tracer_.get());
  }
  net_.reseed(cfg.seed);
  net_.set_control_delay(cfg.control_delay);
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const auto& tn = topo.node(static_cast<topo::NodeIndex>(i));
    if (tn.is_host) {
      net::HostNode& h = net_.add_host(tn.name);
      h.set_mtu(cfg.link.mtu);
    } else {
      net::SwitchNode& s = net_.add_switch(tn.name, cfg.switch_buffer);
      s.set_arch(cfg.arch);
      s.set_egress_queue_cap(cfg.egress_queue_bytes);
      if (cfg.ecn.enabled) s.set_ecn(cfg.ecn);
    }
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const auto& link = topo.link(static_cast<topo::LinkIndex>(l));
    if (!link.up) continue;
    net_.connect(link.a, link.b, cfg.link.rate, cfg.link.prop_delay);
  }
  // Flow control attaches last: gates need the peer wiring.
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    auto module = make_fc_module(cfg_);
    if (module) net_.node(static_cast<net::NodeId>(i)).set_fc(std::move(module));
  }
  if (cfg_.fault.enabled())
    fault_plan_ = std::make_unique<fault::FaultPlan>(net_, cfg_.fault);
  // Campaign watchdog cancellation point: when the worker pool installed a
  // ProgressSink on this thread, beacon on a persistent timer. The beacon
  // reads no simulation state — results and goldens are untouched — and
  // throws CancelledError once the watchdog requests cancellation,
  // unwinding the trial out of run_until.
  if (exp::ProgressSink* sink = exp::current_progress_sink()) {
    constexpr sim::TimePs kBeaconPeriod = sim::us(100);
    sim::Scheduler& sched = net_.sched();
    progress_timer_ = sched.register_timer([this, sink] {
      sim::Scheduler& s = net_.sched();
      // Re-arm first: beacon may throw, and the next attempt's Fabric is a
      // fresh object anyway — but keeping the timer armed costs nothing and
      // keeps the no-cancel path a plain periodic timer.
      s.arm_timer(progress_timer_, s.now() + kBeaconPeriod);
      sink->beacon();
    });
    sched.arm_timer(progress_timer_, sched.now() + kBeaconPeriod);
  }
}

Fabric::~Fabric() = default;

trace::NodeNameFn Fabric::node_name_fn() {
  return [this](std::int32_t id) -> std::string {
    if (id < 0 || static_cast<std::size_t>(id) >= net_.node_count()) return {};
    return net_.node(id).name();
  };
}

int Fabric::port_to(topo::NodeIndex from, topo::NodeIndex to) const {
  if (from < 0 || static_cast<std::size_t>(from) >= net_.node_count())
    return -1;
  return net_.find_port(from, to);
}

topo::NodeIndex Fabric::peer_of(topo::NodeIndex node, int port) const {
  if (node < 0 || static_cast<std::size_t>(node) >= net_.node_count())
    return -1;
  const net::Node& n = net_.node(node);
  if (port < 0 || port >= n.port_count()) return -1;
  return n.peer(port).node;
}

const analyze::Report* Fabric::analysis() const {
  return analyzer_ ? &analyzer_->report() : nullptr;
}

void Fabric::install_routing(const topo::Topology& topo,
                             const topo::RoutingTable& routing) {
  // Pre-flight: the one spot where topology, routing and flow-control
  // parameters are all known before the new routes take effect. The
  // analyzer is incremental, so a mid-run reroute after a link flap
  // re-verdicts at delta cost; kFail throws analyze::PreflightError on an
  // at-risk verdict (campaign worker pools record it as the trial's
  // failure) — including flap-induced regressions mid-run.
  if (cfg_.preflight != analyze::PreflightMode::kOff || cfg_.witness_check) {
    if (!analyzer_ || analyzed_topo_ != &topo) {
      analyze::Input in;
      in.topo = &topo;
      in.cfg = cfg_;
      analyzer_ = std::make_unique<analyze::IncrementalAnalyzer>(in);
      analyzed_topo_ = &topo;
    }
    const analyze::Report& rep = analyzer_->update(routing);
    const int ordinal = reverdicts_++;
    if (tracer_)
      tracer_->record(trace::EventType::kAnalyzeVerdict, net_.sched().now(),
                      -1, -1, -1, ordinal,
                      static_cast<std::int64_t>(rep.verdict()));
    analyze::preflight_verdict(cfg_.preflight, rep);
  }
  for (topo::NodeIndex s : topo.switches()) {
    net::SwitchNode& swn = sw(s);
    swn.clear_routes();
    for (topo::NodeIndex dst : topo.hosts()) {
      const auto& hops = routing.next_hops(s, dst);
      if (hops.empty()) continue;
      std::vector<std::int32_t> ports;
      ports.reserve(hops.size());
      for (topo::NodeIndex nh : hops) {
        const int p = port_to(s, nh);
        assert(p >= 0 && "routing references a failed link");
        ports.push_back(p);
      }
      swn.set_route(dst, std::move(ports));
    }
  }
}

std::int64_t Fabric::ingress_queue_bytes(topo::NodeIndex at,
                                         topo::NodeIndex from, int prio) {
  const int p = port_to(at, from);
  assert(p >= 0);
  return sw(at).ingress_bytes(p, prio);
}

sim::Rate Fabric::egress_rate(topo::NodeIndex node, topo::NodeIndex toward,
                              int prio) {
  const int p = port_to(node, toward);
  assert(p >= 0);
  net::Node& n = net_.node(node);
  if (auto* m = dynamic_cast<core::GfcBufferModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  if (auto* m = dynamic_cast<core::GfcTimeModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  if (auto* m = dynamic_cast<core::GfcConceptualModule*>(n.fc())) {
    const sim::Rate r = m->programmed_rate(p, prio);
    return r.is_zero() ? cfg_.link.rate : r;
  }
  return cfg_.link.rate;
}

}  // namespace gfc::runner
