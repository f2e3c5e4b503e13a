// The trace subsystem (src/trace/): ring-buffer semantics, category
// gating, name round-trips, exporter determinism, CSV re-import, and the
// flight-recorder deadlock post-mortem on the paper's PFC ring.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "exp/cli.hpp"
#include "exp/results.hpp"
#include "exp/worker_pool.hpp"
#include "runner/scenarios.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace gfc::trace {
namespace {

TraceEvent ev(sim::TimePs t, EventType type, std::int32_t node = 0,
              std::int16_t port = 0, std::int64_t value = 0) {
  TraceEvent e;
  e.t = t;
  e.type = static_cast<std::uint8_t>(type);
  e.node = node;
  e.port = port;
  e.value = value;
  return e;
}

TEST(TraceBuffer, OverwritesOldestWhenFull) {
  TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i)
    buf.push(ev(sim::us(i), EventType::kPortEnqueue, 0, 0, i));
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.total_recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  ASSERT_EQ(buf.size(), 4u);
  // Chronological access: [0] is the oldest retained event (i = 6).
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf[i].value, static_cast<std::int64_t>(6 + i));
}

TEST(TraceBuffer, PartiallyFilledKeepsPushOrder) {
  TraceBuffer buf(8);
  for (int i = 0; i < 3; ++i)
    buf.push(ev(sim::us(i), EventType::kDrop, i));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 0u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(buf[i].node, static_cast<std::int32_t>(i));
}

TEST(Tracer, CategoryMaskGatesRecording) {
  TraceOptions opts;
  opts.enabled = true;
  opts.categories = kCatPfc;
  opts.capacity = 16;
  Tracer tr(opts);
  tr.record(EventType::kPauseTx, sim::us(1), 0, 0, 0, 1, 0);   // pfc: kept
  tr.record(EventType::kPortEnqueue, sim::us(2), 0, 0, 0, 2, 0);  // port: no
  tr.record(EventType::kCreditRx, sim::us(3), 0, 0, 0, 3, 0);     // credit: no
  tr.record(EventType::kResumeRx, sim::us(4), 0, 0, 0, 4, 0);  // pfc: kept
  ASSERT_EQ(tr.buffer().size(), 2u);
  EXPECT_EQ(tr.buffer()[0].event_type(), EventType::kPauseTx);
  EXPECT_EQ(tr.buffer()[1].event_type(), EventType::kResumeRx);
  EXPECT_TRUE(tr.enabled(kCatPfc));
  EXPECT_FALSE(tr.enabled(kCatPort));
}

TEST(Categories, ParseAndFormatRoundTrip) {
  std::string err;
  EXPECT_EQ(parse_categories("all", &err), kCatAll);
  EXPECT_EQ(parse_categories("pfc", &err), kCatPfc);
  EXPECT_EQ(parse_categories("pfc,port,sched", &err),
            kCatPfc | kCatPort | kCatSched);
  EXPECT_EQ(parse_categories("bogus", &err), 0u);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(categories_to_string(kCatAll), "all");
  const std::uint32_t mask = kCatCredit | kCatDeadlock;
  EXPECT_EQ(parse_categories(categories_to_string(mask)), mask);
  // Static re-verdict events are their own filterable category.
  EXPECT_EQ(parse_categories("analyze", &err), kCatAnalyze);
  EXPECT_EQ(category_of(EventType::kAnalyzeVerdict), kCatAnalyze);
}

TEST(Categories, EveryTypeNameRoundTrips) {
  for (int i = 0; i < static_cast<int>(EventType::kNumEventTypes); ++i) {
    const EventType t = static_cast<EventType>(i);
    EventType back;
    ASSERT_TRUE(type_from_name(type_name(t), &back)) << type_name(t);
    EXPECT_EQ(back, t);
    // Every type maps onto exactly one category bit inside the mask.
    EXPECT_NE(category_of(t) & kCatAll, 0u);
  }
  EventType unused;
  EXPECT_FALSE(type_from_name("not_a_type", &unused));
}

TEST(FlightWindow, KeepsLastNPerNodeAndMergesInTimeOrder) {
  TraceBuffer ring(16);
  for (int i = 0; i < 8; ++i)
    ring.push(ev(sim::us(i), EventType::kPortEnqueue, /*node=*/0, 0, i));
  ring.push(ev(sim::us(2), EventType::kPauseRx, /*node=*/2, 1, 99));
  // Node-less events are neither windowed nor counted as a node.
  ring.push(ev(sim::us(9), EventType::kDrop, -1));
  const FlightWindow fw = flight_window(ring, 3);
  EXPECT_EQ(fw.node_count, 3);
  // Node 0's last 3 of 8, node 2's one event, none for node 1.
  ASSERT_EQ(fw.events.size(), 4u);
  EXPECT_EQ(fw.events[0].value, 99);
  EXPECT_EQ(fw.events[1].value, 5);
  EXPECT_EQ(fw.events[2].value, 6);
  EXPECT_EQ(fw.events[3].value, 7);
  for (std::size_t i = 1; i < fw.events.size(); ++i)
    EXPECT_LE(fw.events[i - 1].t, fw.events[i].t);
}

TEST(FlightWindow, EqualTimesOrderByNodeThenRingOrder) {
  TraceBuffer ring(8);
  ring.push(ev(sim::us(1), EventType::kPauseTx, /*node=*/1, 0, 10));
  ring.push(ev(sim::us(1), EventType::kPauseRx, /*node=*/0, 0, 20));
  ring.push(ev(sim::us(1), EventType::kResumeTx, /*node=*/1, 0, 30));
  ring.push(ev(sim::us(1), EventType::kResumeRx, /*node=*/0, 0, 40));
  const FlightWindow fw = flight_window(ring);
  ASSERT_EQ(fw.events.size(), 4u);
  EXPECT_EQ(fw.events[0].value, 20);
  EXPECT_EQ(fw.events[1].value, 40);
  EXPECT_EQ(fw.events[2].value, 10);
  EXPECT_EQ(fw.events[3].value, 30);
}

// --- end-to-end: a traced 3-switch ring --------------------------------------

runner::RingScenario traced_ring(std::uint32_t categories = kCatAll) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate,
                                   cfg.tau());
  cfg.trace.enabled = true;
  cfg.trace.categories = categories;
  return runner::make_ring(cfg, 3, 1);
}

TEST(TraceRoundTrip, CsvReimportsExactly) {
  runner::RingScenario s = traced_ring();
  s.fabric->net().run_until(sim::ms(1));
  const Tracer* tr = s.fabric->net().tracer();
  ASSERT_NE(tr, nullptr);
  ASSERT_GT(tr->buffer().size(), 0u);

  std::stringstream ss;
  write_csv(ss, tr->buffer());
  std::vector<TraceEvent> back;
  std::string err;
  ASSERT_TRUE(parse_csv(ss, &back, &err)) << err;
  ASSERT_EQ(back.size(), tr->buffer().size());
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_EQ(back[i], tr->buffer()[i]) << "event " << i;
}

TEST(TraceRoundTrip, ParseCsvRejectsMalformedLines) {
  std::stringstream ss("# gfc-trace-v1\nt_ps,type,category,node,port,prio,"
                       "id,value\n12,port_enqueue,port,0,1,0,7\n");
  std::vector<TraceEvent> out;
  std::string err;
  EXPECT_FALSE(parse_csv(ss, &out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(TraceRoundTrip, SeededRunsExportByteIdentically) {
  std::string json[2], csv[2];
  for (int r = 0; r < 2; ++r) {
    runner::RingScenario s = traced_ring();
    s.fabric->net().run_until(sim::ms(1));
    std::stringstream j, c;
    write_chrome_json(j, s.fabric->net().tracer()->buffer(),
                      s.fabric->node_name_fn());
    write_csv(c, s.fabric->net().tracer()->buffer());
    json[r] = j.str();
    csv[r] = c.str();
  }
  EXPECT_GT(json[0].size(), 0u);
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(TraceRoundTrip, ChromeJsonHasMetadataCountersAndInstants) {
  runner::RingScenario s = traced_ring();
  s.fabric->net().run_until(sim::ms(1));
  std::stringstream j;
  write_chrome_json(j, s.fabric->net().tracer()->buffer(),
                    s.fabric->node_name_fn());
  const std::string out = j.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);  // counter tracks
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instants
}

TEST(TraceRoundTrip, CategoryFilterDropsWholeSubsystems) {
  runner::RingScenario s = traced_ring(kCatFlow);
  s.fabric->net().run_until(sim::ms(1));
  const TraceBuffer& buf = s.fabric->net().tracer()->buffer();
  ASSERT_GT(buf.size(), 0u);  // at least the flow starts and deliveries
  bool saw_deliver = false;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i].category(), kCatFlow);
    saw_deliver |= buf[i].event_type() == EventType::kDeliver;
  }
  EXPECT_TRUE(saw_deliver);
}

// Campaign-level determinism: trials that export their traces to strings
// hash identically whether the pool runs them on 1 worker or 4.
TEST(TraceRoundTrip, CampaignTraceHashesIndependentOfJobs) {
  auto run_campaign_hashed = [](int jobs) {
    exp::Campaign c;
    c.name = "trace-determinism";
    for (int i = 0; i < 4; ++i) {
      c.add("ring/" + std::to_string(i), exp::ParamSet{}, [] {
        runner::RingScenario s = traced_ring();
        s.fabric->net().run_until(sim::ms(1));
        std::stringstream j;
        write_chrome_json(j, s.fabric->net().tracer()->buffer(),
                          s.fabric->node_name_fn());
        return exp::TrialResult().add(
            "hash", static_cast<std::int64_t>(std::hash<std::string>{}(
                        j.str())));
      });
    }
    exp::PoolOptions p;
    p.jobs = jobs;
    p.progress = false;
    return exp::run_campaign(c, p);
  };
  const exp::CampaignResult r1 = run_campaign_hashed(1);
  const exp::CampaignResult r4 = run_campaign_hashed(4);
  EXPECT_EQ(r1.json(), r4.json());
}

// --- flight recorder on the deadlocking PFC ring -----------------------------

TEST(FlightDump, ContainsPauseWitnessOnPfcRingDeadlock) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  cfg.trace.enabled = true;
  runner::RingScenario s = runner::make_ring(cfg);
  net::Network& net = s.fabric->net();

  std::string dump;
  stats::DeadlockOptions dl;
  dl.on_detect = [&](const stats::DeadlockDetector& det) {
    std::stringstream ss;
    write_flight_dump(ss, net.tracer()->buffer(), s.fabric->node_name_fn(),
                      "witness cycle: " +
                          runner::describe_cycle(det, net));
    dump = ss.str();
  };
  stats::DeadlockDetector det(net, dl);
  net.run_until(sim::ms(20));

  ASSERT_TRUE(det.deadlocked());
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("# gfc-flight-v1"), std::string::npos);
  EXPECT_NE(dump.find("witness cycle: "), std::string::npos);
  EXPECT_NE(dump.find(" window: 256 events/node\n"), std::string::npos);
  // The pre-stall window of every node in the witness cycle holds the PFC
  // PAUSE traffic that froze it — the evidence the dump exists to provide.
  EXPECT_NE(dump.find("pause_tx"), std::string::npos);
  EXPECT_NE(dump.find("pause_rx"), std::string::npos);
  for (const auto& [nid, port] : det.cycle()) {
    const std::string tag = "node=" + std::to_string(nid);
    EXPECT_NE(dump.find(tag), std::string::npos) << tag;
  }
}

TEST(FlightDump, OnDetectMayStopTheDetector) {
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc, cfg.switch_buffer,
                                   cfg.link.rate, cfg.tau());
  runner::RingScenario s = runner::make_ring(cfg);
  int calls = 0;
  stats::DeadlockOptions dl;
  dl.recover = true;  // would re-detect every scan if not stopped
  dl.on_detect = [&calls](stats::DeadlockDetector& det) {
    ++calls;
    det.stop();
  };
  stats::DeadlockDetector det(s.fabric->net(), dl);
  s.fabric->net().run_until(sim::ms(20));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(det.detections(), 1);
}

TEST(TraceCli, ArtifactPathsFlattenTrialNames) {
  exp::CliOptions cli;
  cli.trace = true;
  cli.trace_out = "/tmp/artifacts";
  EXPECT_EQ(cli.trace_artifact("loss/ring/PFC+expiry/drop0.1", "trace.csv"),
            "/tmp/artifacts/loss_ring_PFC+expiry_drop0.1.trace.csv");
  cli.trace_out.clear();
  EXPECT_EQ(cli.trace_artifact("a b", "json"), "./a_b.json");
}

}  // namespace
}  // namespace gfc::trace
