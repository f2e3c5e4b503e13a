// Unit tests for the experiment-campaign subsystem: value/JSON rendering,
// grid expansion, worker-pool failure capture, the determinism guarantee
// (a campaign of real simulations serializes to identical bytes for
// --jobs 1 and --jobs 8), and the crash-safety layer — journal framing and
// corruption handling, checkpoint/resume byte-identity, trial-range
// sharding, and the per-trial watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "exp/cli.hpp"
#include "exp/journal.hpp"
#include "exp/progress.hpp"
#include "exp/worker_pool.hpp"
#include "runner/scenarios.hpp"
#include "stats/deadlock.hpp"
#include "stats/throughput.hpp"

namespace gfc::exp {
namespace {

PoolOptions pool_opts(int jobs) {
  PoolOptions p;
  p.jobs = jobs;
  return p;
}

TEST(Value, JsonRendering) {
  EXPECT_EQ(Value(true).json(), "true");
  EXPECT_EQ(Value(false).json(), "false");
  EXPECT_EQ(Value(std::int64_t{-42}).json(), "-42");
  EXPECT_EQ(Value(7).json(), "7");
  EXPECT_EQ(Value(0.06).json(), "0.06");  // shortest round-trip, no 0.059999...
  EXPECT_EQ(Value(5.0).json(), "5");
  EXPECT_EQ(Value("plain").json(), "\"plain\"");
  EXPECT_EQ(Value("q\"uote\\n").json(), "\"q\\\"uote\\\\n\"");
  EXPECT_EQ(Value("tab\there").json(), "\"tab\\there\"");
}

TEST(Value, DoubleRoundTrips) {
  const double v = 3.2800000000000002;
  const std::string s = Value(v).json();
  EXPECT_EQ(std::stod(s), v);
}

TEST(ParamSet, OrderedAndOverwritable) {
  ParamSet p;
  p.set("b", 1);
  p.set("a", 2);
  p.set("b", 3);  // overwrite keeps position
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.json(), "{\"b\":3,\"a\":2}");
  ASSERT_NE(p.find("a"), nullptr);
  EXPECT_EQ(p.find("a")->as_int(), 2);
  EXPECT_EQ(p.find("missing"), nullptr);
}

TEST(Grid, CrossProductRowMajor) {
  Grid g;
  g.axis("fc", {"PFC", "GFC"});
  g.axis("seed", {1, 2, 3});
  EXPECT_EQ(g.size(), 6u);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 6u);
  // First axis varies slowest.
  EXPECT_EQ(pts[0].find("fc")->as_string(), "PFC");
  EXPECT_EQ(pts[0].find("seed")->as_int(), 1);
  EXPECT_EQ(pts[2].find("fc")->as_string(), "PFC");
  EXPECT_EQ(pts[2].find("seed")->as_int(), 3);
  EXPECT_EQ(pts[3].find("fc")->as_string(), "GFC");
  EXPECT_EQ(pts[3].find("seed")->as_int(), 1);
}

TEST(Grid, EmptyGridIsOnePoint) {
  Grid g;
  EXPECT_EQ(g.size(), 1u);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_TRUE(pts[0].empty());
}

TEST(Grid, EmptyAxisCollapses) {
  Grid g;
  g.axis("seed", {1, 2});
  g.axis("nothing", {});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.points().empty());
}

TEST(WorkerPool, ResultsInCampaignOrderAnyJobCount) {
  for (int jobs : {1, 4}) {
    Campaign c;
    c.name = "order";
    for (int i = 0; i < 17; ++i) {
      ParamSet p;
      p.set("i", i);
      std::string name("t");  // += form: -Wrestrict misfire (PR105651)
      name += std::to_string(i);
      c.add(name, p,
            [i] { return TrialResult().add("square", std::int64_t{i} * i); });
    }
    const CampaignResult r = run_campaign(c, pool_opts(jobs));
    ASSERT_EQ(r.trials.size(), 17u);
    EXPECT_EQ(r.jobs, jobs);
    for (int i = 0; i < 17; ++i) {
      // Built via += : GCC 12's -O3 -Wrestrict misfires on literal +
      // temporary string concatenation (PR105651).
      std::string want("t");
      want += std::to_string(i);
      EXPECT_EQ(r.trials[static_cast<std::size_t>(i)].name, want);
      EXPECT_EQ(r.trials[static_cast<std::size_t>(i)]
                    .metrics.find("square")
                    ->as_int(),
                std::int64_t{i} * i);
    }
  }
}

TEST(WorkerPool, ThrowingTrialIsCapturedNotFatal) {
  Campaign c;
  c.name = "failures";
  c.add("ok1", {}, [] { return TrialResult().add("v", 1); });
  c.add("boom", {}, []() -> TrialResult {
    throw std::runtime_error("synthetic trial failure");
  });
  c.add("ok2", {}, [] { return TrialResult().add("v", 2); });
  const CampaignResult r = run_campaign(c, pool_opts(4));
  ASSERT_EQ(r.trials.size(), 3u);
  EXPECT_EQ(r.failures(), 1u);
  EXPECT_FALSE(r.trials[0].failed);
  EXPECT_TRUE(r.trials[1].failed);
  EXPECT_EQ(r.trials[1].error, "synthetic trial failure");
  EXPECT_TRUE(r.trials[1].metrics.empty());
  EXPECT_FALSE(r.trials[2].failed);
  ASSERT_NE(r.find("boom"), nullptr);
  EXPECT_TRUE(r.find("boom")->failed);
  // Failure shows up in JSON as failed/error, not metrics.
  EXPECT_NE(r.json().find("\"failed\": true"), std::string::npos);
  EXPECT_NE(r.json().find("synthetic trial failure"), std::string::npos);
}

TEST(WorkerPool, NonExceptionThrowCaptured) {
  Campaign c;
  c.name = "odd-throw";
  c.add("weird", {}, []() -> TrialResult { throw 42; });
  const CampaignResult r = run_campaign(c, pool_opts(2));
  ASSERT_EQ(r.trials.size(), 1u);
  EXPECT_TRUE(r.trials[0].failed);
  EXPECT_EQ(r.trials[0].error, "unknown exception");
}

// The load-bearing guarantee: each trial owns a private Scheduler/Network,
// so a campaign of real deterministic sims must serialize to byte-identical
// JSON regardless of worker count or interleaving.
Campaign small_sim_campaign() {
  using namespace gfc::runner;
  Campaign c;
  c.name = "determinism";
  const FcKind kinds[] = {FcKind::kPfc, FcKind::kGfcBuffer};
  for (const FcKind kind : kinds) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ParamSet p;
      p.set("fc", fc_name(kind));
      p.set("seed", seed);
      c.add(std::string(fc_name(kind)) + "/" + std::to_string(seed), p,
            [kind, seed] {
              ScenarioConfig cfg;
              cfg.seed = seed;
              cfg.fc = FcSetup::derive(kind, cfg.switch_buffer, cfg.link.rate,
                                       cfg.tau());
              RingScenario s = make_ring(cfg);
              net::Network& net = s.fabric->net();
              stats::ThroughputSampler tp(net, sim::us(100));
              stats::DeadlockDetector det(net);
              net.run_until(sim::ms(2));
              return TrialResult()
                  .add("deadlocked", det.deadlocked())
                  .add("gbps", tp.average_gbps(0, sim::ms(1), sim::ms(2)))
                  .add("violations", net.counters().lossless_violations);
            });
    }
  }
  return c;
}

TEST(WorkerPool, CampaignJsonByteIdenticalAcrossJobCounts) {
  const CampaignResult r1 =
      run_campaign(small_sim_campaign(), pool_opts(1));
  const CampaignResult r8 =
      run_campaign(small_sim_campaign(), pool_opts(8));
  EXPECT_EQ(r1.json(), r8.json());
  // Default JSON carries no wall-clock or job-count fields at all.
  EXPECT_EQ(r1.json().find("wall_ms"), std::string::npos);
  EXPECT_EQ(r1.json().find("jobs"), std::string::npos);
  // Opting into timing metadata adds them (jobs clamps to the 6 trials).
  EXPECT_NE(r1.json(true).find("wall_ms"), std::string::npos);
  EXPECT_NE(r8.json(true).find("\"jobs\": 6"), std::string::npos);
}

TEST(Cli, ParsesCampaignFlags) {
  const char* argv[] = {"prog", "--quick", "--jobs", "6", "--json",
                        "/tmp/out.json", "--timing", "--no-progress"};
  const CliOptions o = parse_cli(8, const_cast<char**>(argv));
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.jobs, 6);
  EXPECT_EQ(o.json_path, "/tmp/out.json");
  EXPECT_TRUE(o.timing);
  EXPECT_FALSE(o.progress);
  const char* argv2[] = {"prog", "--jobs=3", "--json=x.json"};
  const CliOptions o2 = parse_cli(3, const_cast<char**>(argv2));
  EXPECT_EQ(o2.jobs, 3);
  EXPECT_EQ(o2.json_path, "x.json");
  EXPECT_FALSE(o2.quick);
}

TEST(Cli, AnalyzeAndCbdFreeRoutingRoundTrip) {
  // The campaign binaries assign these straight into ScenarioConfig /
  // FcSetup; the round trip here is what makes "--analyze=fail
  // --cbd-free-routing" a provable combination (pre-flight must pass on
  // the restricted tables) on all four of them.
  const char* argv[] = {"prog", "--analyze=fail", "--cbd-free-routing"};
  const CliOptions o = parse_cli(3, const_cast<char**>(argv));
  EXPECT_EQ(o.preflight, gfc::analyze::PreflightMode::kFail);
  EXPECT_TRUE(o.cbd_free_routing);
  const char* argv2[] = {"prog", "--analyze"};
  const CliOptions o2 = parse_cli(2, const_cast<char**>(argv2));
  EXPECT_EQ(o2.preflight, gfc::analyze::PreflightMode::kWarn);
  EXPECT_FALSE(o2.cbd_free_routing);  // default stays off
}

// ---------------------------------------------------------------------------
// Crash-safe campaigns: journal, resume, sharding, watchdog.

std::string tmp_path(const char* name) {
  std::string p = testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  p += name;
  std::remove(p.c_str());
  return p;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Byte offsets of the frame boundaries in a journal file (0, end of
/// header, end of record 1, ...).
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::size_t> out{0};
  std::size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i)
      len = (len << 8) |
            static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(i)]);
    pos += 8 + len;
    EXPECT_LE(pos, bytes.size());
    out.push_back(pos);
  }
  return out;
}

/// A deterministic synthetic campaign; `runs` (optional) counts how many
/// trial bodies actually execute, so resume tests can assert completed
/// trials are skipped rather than silently re-run.
Campaign counting_campaign(int n, std::uint64_t seed = 7,
                           std::atomic<int>* runs = nullptr) {
  Campaign c;
  c.name = "journal-test";
  c.seed = seed;
  for (int i = 0; i < n; ++i) {
    ParamSet p;
    p.set("i", i);
    p.set("half", i / 2.0);
    std::string name("t");  // += form: -Wrestrict misfire (PR105651)
    name += std::to_string(i);
    c.add(name, p, [i, runs] {
      if (runs != nullptr) runs->fetch_add(1);
      return TrialResult()
          .add("square", std::int64_t{i} * i)
          .add("ratio", i / 3.0)
          .add("even", i % 2 == 0)
          .add("tag", std::string("v") + std::to_string(i));
    });
  }
  return c;
}

TEST(Journal, AppendLoadRoundTrip) {
  const std::string path = tmp_path("roundtrip.journal");
  const Campaign c = counting_campaign(3);
  const JournalHeader header = journal_header_for(c);

  {
    JournalWriter w = JournalWriter::create(path, header);
    TrialRecord ok;
    ok.name = "t0";
    ok.params = c.trials[0].params;
    ok.metrics.set("gbps", 3.2800000000000002);
    ok.metrics.set("deadlocked", false);
    ok.metrics.set("note", "quote\" tab\t nl\n");
    w.append(0, ok);
    TrialRecord bad;
    bad.name = "t2";
    bad.params = c.trials[2].params;
    bad.failed = true;
    bad.error = "synthetic \"quoted\" failure";
    bad.attempts = 2;
    w.append(2, bad);
  }

  const LoadedJournal loaded = load_journal(path);
  EXPECT_TRUE(loaded.header == header);
  EXPECT_FALSE(loaded.torn_tail);
  EXPECT_EQ(loaded.clean_bytes, read_file(path).size());
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].trial, 0u);
  EXPECT_EQ(loaded.entries[0].rec.name, "t0");
  EXPECT_EQ(loaded.entries[0].rec.metrics.find("gbps")->as_double(),
            3.2800000000000002);
  EXPECT_FALSE(loaded.entries[0].rec.metrics.find("deadlocked")->as_bool());
  EXPECT_EQ(loaded.entries[0].rec.metrics.find("note")->as_string(),
            "quote\" tab\t nl\n");
  EXPECT_EQ(loaded.entries[1].trial, 2u);
  EXPECT_TRUE(loaded.entries[1].rec.failed);
  EXPECT_EQ(loaded.entries[1].rec.error, "synthetic \"quoted\" failure");
  EXPECT_EQ(loaded.entries[1].rec.attempts, 2);
}

TEST(Journal, TornTailToleratedAtEveryByteOffset) {
  const std::string path = tmp_path("torn.journal");
  Campaign c = counting_campaign(4);
  PoolOptions opts = pool_opts(1);
  opts.journal_path = path;
  run_campaign(c, opts);

  const std::string bytes = read_file(path);
  const std::vector<std::size_t> bounds = frame_boundaries(bytes);
  ASSERT_EQ(bounds.size(), 6u);  // 0, header, 4 records
  const std::string cut_path = tmp_path("torn-cut.journal");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(cut_path, bytes.substr(0, cut));
    if (cut < bounds[1]) {
      // Not even the header survived the torn write.
      EXPECT_THROW(load_journal(cut_path), JournalError) << "cut=" << cut;
      continue;
    }
    const LoadedJournal l = load_journal(cut_path);
    // clean_bytes = the last complete frame boundary at or before the cut.
    std::size_t want_clean = 0;
    std::size_t want_records = 0;
    for (std::size_t bi = 1; bi < bounds.size(); ++bi)
      if (bounds[bi] <= cut) {
        want_clean = bounds[bi];
        want_records = bi - 1;
      }
    EXPECT_EQ(l.clean_bytes, want_clean) << "cut=" << cut;
    EXPECT_EQ(l.entries.size(), want_records) << "cut=" << cut;
    EXPECT_EQ(l.torn_tail, cut != want_clean) << "cut=" << cut;
  }
}

TEST(Journal, SizeCompleteCorruptionIsRejected) {
  const std::string path = tmp_path("corrupt.journal");
  Campaign c = counting_campaign(2);
  PoolOptions opts = pool_opts(1);
  opts.journal_path = path;
  run_campaign(c, opts);

  std::string bytes = read_file(path);
  const std::vector<std::size_t> bounds = frame_boundaries(bytes);
  ASSERT_GE(bounds.size(), 3u);
  // Flip one payload byte of the first trial record: the frame is still
  // size-complete, so this is corruption, not a torn tail.
  bytes[bounds[1] + 12] ^= 0x01;
  write_file(path, bytes);
  try {
    load_journal(path);
    FAIL() << "corrupt journal was accepted";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("size-complete"), std::string::npos)
        << e.what();
  }
}

TEST(Journal, HeaderFingerprintDistinguishesCampaigns) {
  const Campaign a = counting_campaign(3, 7);
  EXPECT_TRUE(journal_header_for(a) ==
              journal_header_for(counting_campaign(3, 7)));
  // Seed, trial count and per-trial params all feed the fingerprint.
  EXPECT_FALSE(journal_header_for(a) ==
               journal_header_for(counting_campaign(3, 8)));
  EXPECT_FALSE(journal_header_for(a) ==
               journal_header_for(counting_campaign(4, 7)));
  Campaign renamed = counting_campaign(3, 7);
  renamed.trials[1].name = "other";
  EXPECT_FALSE(journal_header_for(a) == journal_header_for(renamed));
  Campaign reparam = counting_campaign(3, 7);
  reparam.trials[1].params.set("i", 99);
  EXPECT_FALSE(journal_header_for(a) == journal_header_for(reparam));
}

TEST(WorkerPool, ResumeAfterTornKillIsByteIdenticalAndSkipsCompleted) {
  const std::string path = tmp_path("resume.journal");
  std::atomic<int> runs{0};
  Campaign c = counting_campaign(6, 7, &runs);
  PoolOptions opts = pool_opts(2);
  opts.journal_path = path;
  const std::string full_json = run_campaign(c, opts).json();
  EXPECT_EQ(runs.load(), 6);

  // Simulate a SIGKILL mid-campaign: keep the header + 2 records, then a
  // torn partial frame (6 bytes of a would-be header).
  const std::string bytes = read_file(path);
  const std::vector<std::size_t> bounds = frame_boundaries(bytes);
  ASSERT_EQ(bounds.size(), 8u);
  write_file(path, bytes.substr(0, bounds[3]) + std::string("\x40\x00\x00\x00\xde\xad", 6));

  runs = 0;
  PoolOptions resume = pool_opts(2);
  resume.journal_path = path;
  resume.resume_paths = {path};
  const CampaignResult r = run_campaign(counting_campaign(6, 7, &runs), resume);
  EXPECT_EQ(runs.load(), 4);  // only the 4 lost trials re-ran
  EXPECT_EQ(r.json(), full_json);
  // The journal healed: torn tail truncated, every trial appended exactly
  // once, so a second resume runs nothing at all.
  runs = 0;
  const CampaignResult r2 =
      run_campaign(counting_campaign(6, 7, &runs), resume);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(r2.json(), full_json);
  const LoadedJournal healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.entries.size(), 6u);
}

TEST(WorkerPool, ResumeFingerprintMismatchThrows) {
  const std::string path = tmp_path("mismatch.journal");
  PoolOptions opts = pool_opts(1);
  opts.journal_path = path;
  run_campaign(counting_campaign(4, 7), opts);

  PoolOptions resume = pool_opts(1);
  resume.resume_paths = {path};
  try {
    run_campaign(counting_campaign(4, 8), resume);  // different seed
    FAIL() << "fingerprint mismatch was accepted";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  // A missing resume file is NOT an error: first run of --resume.
  PoolOptions fresh = pool_opts(1);
  fresh.resume_paths = {tmp_path("never-written.journal")};
  EXPECT_EQ(run_campaign(counting_campaign(4, 7), fresh).failures(), 0u);
}

TEST(WorkerPool, ShardsCoverDisjointRangesAndMergeByteIdentical) {
  const std::string full_json = run_campaign(counting_campaign(10), pool_opts(1)).json();

  std::vector<std::string> shard_paths;
  for (int i = 0; i < 4; ++i) {
    std::string name("shard");  // += form: -Wrestrict misfire (PR105651)
    name += std::to_string(i);
    name += ".journal";
    const std::string path = tmp_path(name.c_str());
    PoolOptions opts = pool_opts(2);
    opts.shard_index = i;
    opts.shard_count = 4;
    opts.journal_path = path;
    const CampaignResult r = run_campaign(counting_campaign(10), opts);
    ASSERT_EQ(r.trials.size(), 10u);
    // Out-of-shard slots are marked skipped, in-shard ones completed.
    for (const TrialRecord& t : r.trials)
      EXPECT_NE(t.ok(), t.skipped) << t.name;
    EXPECT_EQ(r.skipped(), 10u - (load_journal(path).entries.size()));
    shard_paths.push_back(path);
  }

  // Every trial ran in exactly one shard.
  std::vector<int> seen(10, 0);
  for (const std::string& p : shard_paths)
    for (const JournalEntry& e : load_journal(p).entries)
      ++seen[e.trial];
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1);

  // Merging = resuming all shard journals at once; nothing re-runs and the
  // merged store is byte-identical to the uninterrupted --jobs 1 run. The
  // merge journal absorbs every shard's records, so it alone can rebuild
  // the store afterwards.
  const std::string merged = tmp_path("merged.journal");
  std::atomic<int> runs{0};
  PoolOptions merge = pool_opts(2);
  merge.resume_paths = shard_paths;
  merge.journal_path = merged;
  const CampaignResult r =
      run_campaign(counting_campaign(10, 7, &runs), merge);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(r.json(), full_json);
  PoolOptions from_merged = pool_opts(1);
  from_merged.resume_paths = {merged};
  EXPECT_EQ(run_campaign(counting_campaign(10), from_merged).json(),
            full_json);
}

TEST(WorkerPool, WatchdogTimesOutWedgedTrialAndRetries) {
  Campaign c;
  c.name = "watchdog";
  c.add("ok-before", {}, [] { return TrialResult().add("v", 1); });
  // Body is irrelevant: wedge_trial replaces it with an infinite heartbeat
  // loop (the --wedge testing hook).
  c.add("wedged", {}, [] { return TrialResult().add("v", 2); });
  c.add("ok-after", {}, [] { return TrialResult().add("v", 3); });
  PoolOptions opts = pool_opts(2);
  opts.trial_timeout_s = 0.2;
  opts.retries = 2;
  opts.wedge_trial = "wedged";
  const CampaignResult r = run_campaign(c, opts);
  ASSERT_EQ(r.trials.size(), 3u);
  EXPECT_TRUE(r.trials[0].ok());
  EXPECT_TRUE(r.trials[2].ok());
  const TrialRecord& w = r.trials[1];
  EXPECT_TRUE(w.timed_out);
  EXPECT_FALSE(w.failed);
  EXPECT_EQ(w.attempts, 3);  // 1 + 2 retries, all cancelled
  EXPECT_NE(w.error.find("exceeded --trial-timeout"), std::string::npos);
  EXPECT_TRUE(w.metrics.empty());
  EXPECT_EQ(r.timeouts(), 1u);
  EXPECT_EQ(r.failures(), 0u);
  // Serialized as timed_out (+ attempts), never as failed.
  const std::string json = r.json();
  EXPECT_NE(json.find("\"timed_out\": true"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 3"), std::string::npos);
  EXPECT_EQ(json.find("\"failed\""), std::string::npos);
}

TEST(WorkerPool, WatchdogCancelsSyntheticBodyViaProgressCheckpoint) {
  Campaign c;
  c.name = "checkpoint";
  c.add("spin", {}, [] {
    // A hand-written long-running body: progress_checkpoint is its only
    // cancellation point, exactly as documented in exp/progress.hpp.
    for (;;) {
      progress_checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return TrialResult();
  });
  PoolOptions opts = pool_opts(1);
  opts.trial_timeout_s = 0.15;
  const CampaignResult r = run_campaign(c, opts);
  ASSERT_EQ(r.trials.size(), 1u);
  EXPECT_TRUE(r.trials[0].timed_out);
  EXPECT_EQ(r.trials[0].attempts, 1);
}

TEST(WorkerPool, WatchdogCancelsRealSimulationViaFabricBeacon) {
  using namespace gfc::runner;
  Campaign c;
  c.name = "sim-cancel";
  c.add("endless-ring", {}, [] {
    ScenarioConfig cfg;
    cfg.seed = 1;
    cfg.fc = FcSetup::derive(FcKind::kGfcBuffer, cfg.switch_buffer,
                             cfg.link.rate, cfg.tau());
    RingScenario s = make_ring(cfg);
    // Far beyond what 0.3 wall seconds can simulate: only the beacon
    // timer Fabric registered (through the thread's ProgressSink) can end
    // this trial.
    s.fabric->net().run_until(sim::ms(600000));
    return TrialResult().add("finished", true);
  });
  PoolOptions opts = pool_opts(1);
  opts.trial_timeout_s = 0.3;
  const CampaignResult r = run_campaign(c, opts);
  ASSERT_EQ(r.trials.size(), 1u);
  EXPECT_TRUE(r.trials[0].timed_out);
  EXPECT_FALSE(r.trials[0].failed);
}

TEST(WorkerPool, BeaconTimerDoesNotPerturbResults) {
  // The Fabric heartbeat is scheduled only when a ProgressSink is
  // installed, i.e. only inside worker-pool trials — and even then it
  // must not shift any simulation outcome. Compare a watchdogged pool run
  // against the same campaign run with the watchdog off.
  const std::string plain = run_campaign(small_sim_campaign(), pool_opts(2)).json();
  PoolOptions watched = pool_opts(2);
  watched.trial_timeout_s = 3600;  // armed, never fires
  EXPECT_EQ(run_campaign(small_sim_campaign(), watched).json(), plain);
}

TEST(Cli, ParsesCrashSafetyFlags) {
  const char* argv[] = {"prog",           "--resume", "a.journal",
                        "--resume",       "b.journal", "--trial-timeout",
                        "2.5",            "--retries", "3",
                        "--shard",        "2/5",       "--wedge",
                        "loss/ring/PFC",  "--scale",   "12.5"};
  const CliOptions o = parse_cli(15, const_cast<char**>(argv));
  ASSERT_EQ(o.resume_paths.size(), 2u);
  EXPECT_EQ(o.resume_paths[0], "a.journal");
  EXPECT_EQ(o.resume_paths[1], "b.journal");
  EXPECT_EQ(o.trial_timeout_s, 2.5);
  EXPECT_EQ(o.retries, 3);
  EXPECT_EQ(o.shard_index, 2);
  EXPECT_EQ(o.shard_count, 5);
  EXPECT_EQ(o.wedge_trial, "loss/ring/PFC");
  EXPECT_EQ(o.scale, 12.5);
  // --resume doubles as the journal unless --journal overrides.
  EXPECT_EQ(o.pool().journal_path, "a.journal");
  const char* argv2[] = {"prog", "--resume=a.journal", "--journal=j.bin"};
  EXPECT_EQ(parse_cli(3, const_cast<char**>(argv2)).pool().journal_path,
            "j.bin");
}

TEST(CliDeath, RejectsMalformedNumericArguments) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    parse_cli(static_cast<int>(args.size()),
              const_cast<char**>(args.data()));
  };
  // std::atoi would have parsed these as 0 and silently serialized the
  // campaign (or run every trial with seed 0). Exit 2 + usage instead.
  EXPECT_EXIT(run({"--jobs", "abc"}), testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(run({"--jobs", "4x"}), testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(run({"--seed", "12monkeys"}), testing::ExitedWithCode(2),
              "non-negative integer");
  EXPECT_EXIT(run({"--seed", "-3"}), testing::ExitedWithCode(2),
              "non-negative integer");
  EXPECT_EXIT(run({"--trial-timeout", "fast"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--trial-timeout", "-1"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--trial-timeout", "0"}), testing::ExitedWithCode(2),
              "positive number");
  // Past the named bounds the watchdog's nanosecond budget and table1's
  // sample counts overflow; they exit 2 like a malformed value.
  EXPECT_EXIT(run({"--trial-timeout", "inf"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--trial-timeout", "1e300"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--retries", "many"}), testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(run({"--scale", "big"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--scale", "inf"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--scale", "1e30"}), testing::ExitedWithCode(2),
              "positive number");
  EXPECT_EXIT(run({"--shard", "3"}), testing::ExitedWithCode(2),
              "expected I/N");
  EXPECT_EXIT(run({"--shard", "4/4"}), testing::ExitedWithCode(2),
              "out of range");
  EXPECT_EXIT(run({"--shard", "0/0"}), testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(run({"--shard", "a/b"}), testing::ExitedWithCode(2),
              "expected an integer");
  EXPECT_EXIT(run({"--jobs"}), testing::ExitedWithCode(2), "usage:");
  EXPECT_EXIT(run({"--bogus"}), testing::ExitedWithCode(2), "usage:");
  // Not a flag (the simulator is sequential), and not a prefix match for
  // --shard I/N journal sharding either.
  EXPECT_EXIT(run({"--shards", "4"}), testing::ExitedWithCode(2), "usage:");
}

TEST(Cli, FinishCliDistinguishesTimeoutsFromFailures) {
  CliOptions cli;  // no --json: finish_cli only reports + sets the status
  CampaignResult r;
  r.campaign = "codes";
  r.trials.resize(3);
  r.trials[0].name = "ok";
  r.trials[1].name = "slow";
  r.trials[2].name = "ok2";
  EXPECT_EQ(finish_cli(cli, r), 0);
  r.trials[1].timed_out = true;
  r.trials[1].error = "exceeded --trial-timeout 1s on 1 attempt(s)";
  EXPECT_EQ(finish_cli(cli, r), 3);  // timeouts only
  r.trials[2].failed = true;
  r.trials[2].error = "boom";
  EXPECT_EQ(finish_cli(cli, r), 1);  // any failure dominates
}

TEST(Results, ReportRendersTimeoutAndSkippedRows) {
  CampaignResult r;
  r.campaign = "render";
  r.trials.resize(3);
  r.trials[0].name = "good";
  r.trials[0].metrics.set("v", 1);
  r.trials[1].name = "slow";
  r.trials[1].timed_out = true;
  r.trials[1].error = "exceeded --trial-timeout";
  r.trials[2].name = "elsewhere";
  r.trials[2].skipped = true;
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  r.print_report(f);
  std::rewind(f);
  std::string text(1 << 12, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("TIMEOUT"), std::string::npos) << text;
  EXPECT_NE(text.find("SKIPPED"), std::string::npos) << text;
}

}  // namespace
}  // namespace gfc::exp
