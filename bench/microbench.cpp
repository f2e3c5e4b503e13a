// Engine microbenchmarks (google-benchmark): event scheduler, packet pool,
// rate-limiter math, routing computation, the CBD screen, end-to-end
// simulation rate. Every benchmark also reports `allocs_per_iter`: the
// heap allocations its timed loop makes per iteration, counted by the
// global operator new replaced below (in this binary only).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analyze/analyze.hpp"
#include "core/rate_limiter.hpp"
#include "net/network.hpp"
#include "runner/scenarios.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/routing.hpp"
#include "topo/scenario_gen.hpp"
#include "topo/topology.hpp"

namespace {

/// Heap allocations made by the calling thread so far.
thread_local std::uint64_t t_heap_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++t_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align) {
  ++t_heap_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() called on memory from
// operator new at the call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace gfc;

/// Declared right before a benchmark's timed loop: on scope exit, sets
/// `allocs_per_iter` to the allocations made since, per iteration (the
/// few made after the loop, by counters and labels, are noise).
class AllocsPerIter {
 public:
  explicit AllocsPerIter(benchmark::State& state)
      : state_(state), start_(t_heap_allocs) {}
  ~AllocsPerIter() {
    const double allocs = static_cast<double>(t_heap_allocs - start_);
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        allocs / static_cast<double>(std::max<benchmark::IterationCount>(
                     state_.iterations(), 1)));
  }
  AllocsPerIter(const AllocsPerIter&) = delete;
  AllocsPerIter& operator=(const AllocsPerIter&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    sim::Scheduler sched;
    long sum = 0;
    for (int i = 0; i < 1000; ++i)
      sched.schedule_at(sim::us(i), [&sum, i] { sum += i; });
    sched.run_all();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleRun);

void BM_SchedulerCancelChurn(benchmark::State& state) {
  // Cancel-then-schedule churn with one-shot events: each new wake cancels
  // the pending one. EgressPort::set_wake does the same on its registered
  // wake timer (cancel, then fire_at); the body stays one-shot so recorded
  // runs stay comparable.
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    sim::Scheduler sched;
    long fired = 0;
    sim::EventId pending{};
    for (int i = 0; i < 1000; ++i) {
      if (pending.valid()) sched.cancel(pending);
      pending = sched.schedule_at(sim::us(i + 100), [&fired] { ++fired; });
      if (i % 8 == 0) sched.run_until(sim::us(i));
    }
    sched.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelChurn);

void BM_SchedulerTimerRefire(benchmark::State& state) {
  // The port-wake pattern: one registered timer re-armed by
  // cancel(TimerId) plus fire_at, as EgressPort::set_wake does, under the
  // same churn as BM_SchedulerCancelChurn.
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    sim::Scheduler sched;
    long fired = 0;
    const sim::TimerId timer = sched.register_timer([&fired] { ++fired; });
    for (int i = 0; i < 1000; ++i) {
      sched.cancel(timer);
      sched.fire_at(timer, sim::us(i + 100));
      if (i % 8 == 0) sched.run_until(sim::us(i));
    }
    sched.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerTimerRefire);

void BM_SchedulerSameTimestampBurst(benchmark::State& state) {
  // Many events sharing few distinct timestamps: exercises the FIFO
  // tie-break and the same-timestamp pop batching in run_until.
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    sim::Scheduler sched;
    long sum = 0;
    for (int i = 0; i < 1000; ++i)
      sched.schedule_at(sim::us(i / 100), [&sum, i] { sum += i; });
    sched.run_until(sim::us(10));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSameTimestampBurst);

void BM_SchedulerFabricMix(benchmark::State& state) {
  // The ready queue alone under a packet engine's timer mix: one
  // registered timer per egress port and one per wire of a k-ary fat-tree
  // (two directions per link). Each timer re-fires itself 51.2 ns (a
  // control frame's transmit time), 1 us (a wire's propagation delay) or
  // 1.2 us (a 1500 B transmit time) ahead, in turn, so the events due per
  // tick grow with k. Items are events executed; an iteration runs 10 us
  // of simulated time.
  const int k = static_cast<int>(state.range(0));
  topo::Topology topo;
  topo::build_fattree(topo, k);
  const std::size_t n_timers = 4 * topo.link_count();
  static constexpr sim::TimePs kDelays[3] = {sim::ns(51.2), sim::us(1),
                                             sim::us(1.2)};
  sim::Scheduler sched;
  std::vector<sim::TimerId> timers(n_timers);
  std::vector<std::uint8_t> phase(n_timers);
  for (std::size_t i = 0; i < n_timers; ++i) {
    phase[i] = static_cast<std::uint8_t>(i % 3);
    timers[i] = sched.register_timer([&sched, &timers, &phase, i] {
      std::uint8_t& p = phase[i];
      sched.fire_at(timers[i], sched.now() + kDelays[p]);
      p = static_cast<std::uint8_t>(p == 2 ? 0 : p + 1);
    });
    // Spread the first firings over one 1.2 us period.
    sched.fire_at(timers[i],
                  static_cast<sim::TimePs>(i * 7919) % sim::us(1.2));
  }
  const std::uint64_t events0 = sched.executed_events();
  const AllocsPerIter allocs(state);
  for (auto _ : state) sched.run_until(sched.now() + sim::us(10));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sched.executed_events() - events0));
  state.counters["timers"] = benchmark::Counter(static_cast<double>(n_timers));
}
BENCHMARK(BM_SchedulerFabricMix)->Arg(4)->Arg(8)->Arg(16);

void BM_PacketPoolCycle(benchmark::State& state) {
  net::PacketPool pool;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    net::Packet* p = pool.acquire();
    benchmark::DoNotOptimize(p);
    pool.release(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolCycle);

// Queue-layer benches: packets go through a node's own enqueue and
// poll_data with the node's egress link down, so the port never pulls on
// its own and no wire or transmit timer runs. What is timed is the node's
// queue work: routing, ingress accounting, FIFO push and pop, the
// round-robin walk over priorities and (CIOQ) the crossbar dispatch.
constexpr int kQueueBatch = 32;

net::Packet* make_bench_packet(net::Network& net, net::NodeId dst, int i) {
  net::Packet* p = net.pool().acquire();
  p->size_bytes = 1000;
  p->priority = static_cast<std::uint8_t>(i % 2 == 0 ? 0 : 3);
  p->dst = dst;
  return p;
}

void BM_SwitchForward(benchmark::State& state, net::SwitchArch arch) {
  // One switch, three hosts: data arrives on ports 0 and 1 (two
  // priorities) and leaves on port 2 toward H2.
  net::Network net;
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 3; ++i)
    hosts.push_back(net.add_host("H" + std::to_string(i)).id());
  net::SwitchNode& sw = net.add_switch("S", 1'000'000);
  sw.set_arch(arch);
  for (const net::NodeId h : hosts) net.connect(h, sw.id(), sim::gbps(10), 0);
  sw.set_route(hosts[2], {2});
  net.set_link_state(sw.id(), hosts[2], false);
  std::int64_t bytes = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < kQueueBatch; ++i)
      sw.receive(make_bench_packet(net, hosts[2], i), i % 2);
    // CIOQ defers its egress wake-ups to same-instant events.
    net.run_until(net.sched().now());
    sim::TimePs wake_at = sim::kTimeNever;
    bool waiting = false;
    while (net::Packet* p = sw.poll_data(2, net.sched().now(), &wake_at,
                                         /*consume=*/true, &waiting)) {
      benchmark::DoNotOptimize(p);
      bytes += p->size_bytes;
      sw.on_departure(*p, 2);
      net.free_packet(p);
    }
    net.run_until(net.sched().now());
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK_CAPTURE(BM_SwitchForward, oq, net::SwitchArch::kOutputQueuedFifo);
BENCHMARK_CAPTURE(BM_SwitchForward, cioq, net::SwitchArch::kCioqRoundRobin);

void BM_HostNicSend(benchmark::State& state) {
  // NIC FIFOs on two priorities: inject, then drain through poll_data.
  net::Network net;
  net::HostNode& h = net.add_host("H");
  const net::NodeId peer = net.add_host("P").id();
  net.connect(h.id(), peer, sim::gbps(10), 0);
  net.set_link_state(h.id(), peer, false);
  std::int64_t bytes = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    for (int i = 0; i < kQueueBatch; ++i)
      h.inject(make_bench_packet(net, peer, i));
    sim::TimePs wake_at = sim::kTimeNever;
    bool waiting = false;
    while (net::Packet* p = h.poll_data(h.uplink_port(), net.sched().now(),
                                        &wake_at, /*consume=*/true,
                                        &waiting)) {
      benchmark::DoNotOptimize(p);
      bytes += p->size_bytes;
      net.free_packet(p);
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() * kQueueBatch);
}
BENCHMARK(BM_HostNicSend);

void BM_RateLimiter(benchmark::State& state) {
  core::RateLimiter lim(sim::gbps(5));
  sim::TimePs now = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    now = std::max(now, lim.next_allowed());
    lim.on_transmit(now, 1500);
    // Without this the compiler folds the whole loop away.
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RateLimiter);

void BM_FatTreeRouting(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    topo::Topology t;
    topo::build_fattree(t, k);
    auto routing = topo::compute_shortest_paths(t);
    benchmark::DoNotOptimize(routing);
  }
}
BENCHMARK(BM_FatTreeRouting)->Arg(4)->Arg(8)->Arg(16);

void BM_CbdScreen(benchmark::State& state) {
  // Table 1's CBD pre-filter (the scan_scale loop body) on its seed
  // fabrics: a k-ary fat-tree with 5% random switch-link failures from the
  // k-salted seed stream and shortest-path routing, then one screen_cbd —
  // the routing-closure dependency graph plus one witness DFS. Fabrics are
  // built before timing, and iterations cycle through two CBD-free and two
  // CBD-prone seeds. Table 1's 40 k = 16 seeds hold no prone one, so that
  // row screens seed 1 only.
  const int k = static_cast<int>(state.range(0));
  const std::vector<std::uint64_t> seeds =
      k == 4 ? std::vector<std::uint64_t>{1, 2, 12, 22}
      : k == 8 ? std::vector<std::uint64_t>{1, 2, 65, 66}
               : std::vector<std::uint64_t>{1};
  struct SeedFabric {
    topo::Topology topo;
    topo::RoutingTable routing;
  };
  std::vector<SeedFabric> fabrics(seeds.size());
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    topo::build_fattree(fabrics[i].topo, k);
    sim::Rng rng(seeds[i] * 7919 + static_cast<std::uint64_t>(k));
    topo::random_failures(fabrics[i].topo, rng, 0.05);
    fabrics[i].routing = topo::compute_shortest_paths(fabrics[i].topo);
  }
  std::size_t next = 0;
  std::int64_t prone = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    const SeedFabric& f = fabrics[next++ % fabrics.size()];
    analyze::CbdScreen screen = analyze::screen_cbd(f.topo, f.routing);
    benchmark::DoNotOptimize(screen.prone);
    benchmark::DoNotOptimize(screen.witness);
    prone += screen.prone ? 1 : 0;
  }
  state.counters["prone_share"] = benchmark::Counter(
      static_cast<double>(prone) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CbdScreen)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_RingSimulationGfc(benchmark::State& state) {
  // End-to-end Figure 9 ring: scheduler events executed per second
  // (items/s), with delivered data packets as a sanity counter.
  std::uint64_t events = 0;
  std::int64_t bytes = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    runner::ScenarioConfig cfg;
    cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                     cfg.switch_buffer, cfg.link.rate,
                                     cfg.tau());
    auto s = runner::make_ring(cfg);
    s.fabric->net().run_until(sim::ms(2));
    events += s.fabric->net().executed_events();
    bytes += s.fabric->net().counters().data_bytes_delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["data_packets_per_second"] = benchmark::Counter(
      static_cast<double>(bytes) / 1500.0, benchmark::Counter::kIsRate);
  state.SetLabel("scheduler events executed");
}
BENCHMARK(BM_RingSimulationGfc);

void run_trace_gate_ring(benchmark::State& state, bool trace_on) {
  // The trace-gate cost check: identical Figure 9 ring with tracing fully
  // off (one null-pointer branch per instrumentation site — must be within
  // noise of BM_RingSimulationGfc) vs on with all categories.
  std::uint64_t events = 0;
  std::uint64_t recorded = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    runner::ScenarioConfig cfg;
    cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                     cfg.switch_buffer, cfg.link.rate,
                                     cfg.tau());
    cfg.trace.enabled = trace_on;
    // Size the ring to the 2 ms run: the default 1M-slot (32 MB) ring is
    // sized for long runs, and re-allocating it every benchmark iteration
    // would swamp the per-event cost this benchmark exists to measure.
    cfg.trace.capacity = std::size_t{1} << 17;
    auto s = runner::make_ring(cfg);
    s.fabric->net().run_until(sim::ms(2));
    events += s.fabric->net().sched().executed_events();
    if (trace_on)
      recorded += s.fabric->tracer()->buffer().total_recorded();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  if (trace_on)
    state.counters["trace_events_per_second"] = benchmark::Counter(
        static_cast<double>(recorded), benchmark::Counter::kIsRate);
  state.SetLabel("scheduler events executed");
}

void BM_TraceOff(benchmark::State& state) { run_trace_gate_ring(state, false); }
BENCHMARK(BM_TraceOff);

void BM_TraceOn(benchmark::State& state) { run_trace_gate_ring(state, true); }
BENCHMARK(BM_TraceOn);

void BM_FatTreeClosedLoopGfc(benchmark::State& state) {
  // End-to-end k=8 fat-tree (128 hosts) closed-loop empirical workload:
  // scheduler events executed per second, with completed flows per trial
  // as a sanity counter.
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    runner::ScenarioConfig cfg;
    cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                     cfg.switch_buffer, cfg.link.rate,
                                     cfg.tau());
    auto s = runner::make_fattree(cfg, 8);
    runner::RunOptions opts;
    opts.duration = sim::ms(1);
    opts.warmup = sim::us(200);
    const runner::RunSummary r = runner::run_closed_loop(s, opts);
    events += s.fabric->net().executed_events();
    flows += r.flows_completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["flows_completed"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kAvgIterations);
  state.SetLabel("scheduler events executed");
}
BENCHMARK(BM_FatTreeClosedLoopGfc)->Unit(benchmark::kMillisecond);

void BM_FatTreeK16FullFidelity(benchmark::State& state) {
  // Full paper scale, full fidelity: k=16 fat-tree (1,024 hosts, 320
  // switches) under the closed-loop empirical workload for the Figure-18
  // timeline (10 ms of simulated time — the paper's collapse happens at
  // 8.5 ms), as one sequential trial. One iteration: the run is
  // deterministic, and minutes-long repeats buy no precision worth their
  // wall-clock. Campaigns of such trials scale with --jobs.
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  const AllocsPerIter allocs(state);
  for (auto _ : state) {
    runner::ScenarioConfig cfg;
    cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                     cfg.switch_buffer, cfg.link.rate,
                                     cfg.tau());
    auto s = runner::make_fattree(cfg, 16);
    runner::RunOptions opts;
    opts.duration = sim::ms(10);
    opts.warmup = sim::ms(1);
    const runner::RunSummary r = runner::run_closed_loop(s, opts);
    events += s.fabric->net().executed_events();
    flows += r.flows_completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["flows_completed"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kAvgIterations);
  state.SetLabel("scheduler events executed");
}
BENCHMARK(BM_FatTreeK16FullFidelity)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace
