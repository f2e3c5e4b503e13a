// Shared command-line surface for campaign binaries:
//   --jobs N      worker threads (0 = all cores)        [default 1]
//   --quick       shrunken sweep for smoke runs
//   --seed N      offset added to every trial's RNG seeds [default 0]
//   --scale F     sweep-size multiplier for the scaling benches (table1
//                 topology counts), at most kMaxScale   [default 1]
//   --json PATH   write the campaign's JSON results to PATH
//   --timing      include wall-clock metadata in the JSON
//   --no-progress suppress the live progress/ETA line
//   --trace               enable binary event tracing per trial
//   --trace-out DIR       write per-trial trace artifacts under DIR
//   --trace-categories S  comma list (port,link,pfc,credit,gfc,sched,
//                         deadlock,flow) or "all"       [default all]
//   --analyze[=fail]      static pre-flight deadlock-risk analysis per
//                         fabric: warn on stderr, or fail the trial
//   --cbd-free-routing    replace every scenario's routing with the
//                         up*/down* CBD-free tables (FcSetup's
//                         cbd_free_routing); composes with --analyze=fail
//                         to assert the restriction actually removes the
//                         cycles
// Crash-safe campaign execution (see exp/journal.hpp, exp/worker_pool.hpp):
//   --resume PATH         journal-backed run: load PATH if it exists
//                         (skipping completed trials), append each newly
//                         completed trial to it. Repeatable — extra paths
//                         are load-only, e.g. merging shard journals.
//   --journal PATH        write the journal here instead of the first
//                         --resume path (or with no --resume at all)
//   --trial-timeout SECS  watchdog: cancel a trial attempt after SECS
//                         wall-clock seconds (at most kMaxTrialTimeoutS),
//                         record it as timed_out
//   --retries N           re-run a timed-out trial up to N extra times
//                         (same seed) before recording the timeout
//   --shard I/N           run only shard I of N (contiguous trial-id
//                         ranges); merge the shards' journals afterwards
//   --wedge TRIAL         testing hook: replace TRIAL's body with an
//                         infinite heartbeat loop (watchdog smoke tests)
#pragma once

#include <string>
#include <vector>

#include "analyze/mode.hpp"
#include "exp/worker_pool.hpp"
#include "trace/trace.hpp"

namespace gfc::exp {

/// Upper bounds of the floating-point flags. Past them the watchdog's
/// nanosecond budget and table1's per-k sample counts overflow their
/// integer types; a larger value exits 2 like a malformed one.
inline constexpr double kMaxTrialTimeoutS = 1e6;
inline constexpr double kMaxScale = 1000;

struct CliOptions {
  int jobs = 1;
  bool quick = false;
  bool timing = false;
  bool progress = true;
  /// Base seed offset: campaign binaries add it to every trial's RNG seeds
  /// (sim, workload and fault streams) and stamp it into Campaign::seed.
  /// Zero — the default — reproduces the historical fixed-seed outputs.
  std::uint64_t seed = 0;
  /// Sweep-size multiplier for the scaling benches (table1 samples
  /// round(base * scale) topologies per k). 1 = the tracked default.
  double scale = 1.0;
  std::string json_path;  // empty = don't write JSON

  // Crash-safe execution (exp/worker_pool.hpp has the semantics).
  double trial_timeout_s = 0;
  int retries = 0;
  int shard_index = 0;
  int shard_count = 1;
  std::string journal_path;               // --journal
  std::vector<std::string> resume_paths;  // --resume (repeatable)
  std::string wedge_trial;                // --wedge (testing hook)

  /// Static pre-flight analysis mode for every fabric the binary builds
  /// (assign to ScenarioConfig::preflight after parse_cli).
  analyze::PreflightMode preflight = analyze::PreflightMode::kOff;

  /// Route restriction for every scenario the binary builds (assign to
  /// FcSetup::cbd_free_routing after parse_cli; the scenario builders
  /// honor it). With --analyze=fail this turns the campaign into a proof
  /// that the restricted routing really is cycle-free on every topology
  /// the sweep visits.
  bool cbd_free_routing = false;

  // Tracing (see src/trace/): each trial gets its own Tracer, so artifacts
  // are deterministic at any --jobs.
  bool trace = false;
  std::string trace_out;       // artifact directory ("." when empty)
  std::uint32_t trace_categories = trace::kCatAll;

  PoolOptions pool() const {
    PoolOptions p;
    p.jobs = jobs;
    p.progress = progress;
    p.trial_timeout_s = trial_timeout_s;
    p.retries = retries;
    p.shard_index = shard_index;
    p.shard_count = shard_count;
    p.resume_paths = resume_paths;
    p.wedge_trial = wedge_trial;
    // --resume doubles as the journal unless --journal overrides it.
    p.journal_path = !journal_path.empty()
                         ? journal_path
                         : (resume_paths.empty() ? std::string{}
                                                 : resume_paths.front());
    return p;
  }

  /// TraceOptions for a trial's ScenarioConfig (enabled iff --trace).
  trace::TraceOptions trace_options() const {
    trace::TraceOptions t;
    t.enabled = trace;
    t.categories = trace_categories;
    return t;
  }

  /// "<dir>/<trial>.<ext>" artifact path for a trial id — the trial name is
  /// the deterministic key, never the worker index, so artifacts are stable
  /// at any --jobs. Path separators and spaces inside the trial name are
  /// flattened to '_' to keep everything in one directory.
  std::string trace_artifact(const std::string& trial_name,
                             const char* ext) const {
    std::string flat = trial_name;
    for (char& c : flat)
      if (c == '/' || c == '\\' || c == ' ') c = '_';
    const std::string dir = trace_out.empty() ? "." : trace_out;
    return dir + "/" + flat + "." + ext;
  }
};

/// Parse the flags above; on an unknown argument, missing flag value, or a
/// malformed or out-of-range numeric value (--jobs=abc, --shard 4/0,
/// --scale 1e30, ...), prints usage to stderr and exits with status 2.
CliOptions parse_cli(int argc, char** argv);

/// run_campaign with the CLI's crash-safety options, translating journal
/// problems (fingerprint mismatch, corruption, I/O failure) into the
/// usage-error exit: message on stderr, exit status 2.
CampaignResult run_campaign_cli(const Campaign& campaign,
                                const CliOptions& opts);

/// Standard campaign epilogue: if `--json` was given, write `result` there
/// (honoring `--timing`) and print a one-line confirmation. Lists every
/// failed and timed-out trial on stderr, so a broken trial can't hide
/// inside a green pipeline. Returns the process exit status:
///   0 — every executed trial completed
///   1 — a trial failed, or the JSON could not be written
///   3 — no failures, but at least one trial timed out under the watchdog
int finish_cli(const CliOptions& opts, const CampaignResult& result);

}  // namespace gfc::exp
