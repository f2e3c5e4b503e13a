#include "exp/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "exp/journal.hpp"
#include "exp/progress.hpp"

namespace gfc::exp {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Per-worker watchdog slot: the worker flips `active` around each trial
/// attempt under `mu`; the watchdog thread scans the slots and requests
/// cancellation through the sink when an attempt overruns its budget. The
/// sink outlives every attempt (one per worker), so there is never a
/// dangling-pointer window between watchdog and worker.
struct WorkerSlot {
  std::mutex mu;
  bool active = false;
  Clock::time_point attempt_start{};
  ProgressSink sink;
};

class Watchdog {
 public:
  Watchdog(std::vector<WorkerSlot>& slots, double timeout_s)
      : slots_(slots),
        timeout_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(timeout_s))) {
    thread_ = std::thread([this] { run(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(50));
      if (stop_) return;
      const Clock::time_point now = Clock::now();
      for (WorkerSlot& slot : slots_) {
        std::lock_guard<std::mutex> slot_lock(slot.mu);
        if (slot.active && now - slot.attempt_start > timeout_)
          slot.sink.request_cancel();
      }
    }
  }

  std::vector<WorkerSlot>& slots_;
  Clock::duration timeout_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// One attempt of a trial body with the worker's sink installed as the
/// thread's current ProgressSink. Returns true when the attempt was
/// cancelled by the watchdog (rec left untouched in that case).
bool run_attempt(const Trial& trial, WorkerSlot& slot, TrialRecord& rec,
                 bool wedge) {
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.sink.reset();
    slot.attempt_start = Clock::now();
    slot.active = true;
  }
  set_current_progress_sink(&slot.sink);
  bool cancelled = false;
  try {
    if (wedge) {
      // Deliberately-wedged body: beacon forever so only the watchdog
      // can end the attempt. Used by tests and the --wedge CI smoke.
      for (;;) {
        slot.sink.beacon();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    rec.metrics = trial.run().metrics;
    rec.failed = false;
    rec.error.clear();
  } catch (const CancelledError&) {
    cancelled = true;
  } catch (const std::exception& e) {
    rec.failed = true;
    rec.error = e.what();
  } catch (...) {
    rec.failed = true;
    rec.error = "unknown exception";
  }
  set_current_progress_sink(nullptr);
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.active = false;
  }
  return cancelled;
}

TrialRecord run_one(const Trial& trial, WorkerSlot& slot,
                    const PoolOptions& opts, bool wedge) {
  TrialRecord rec;
  rec.name = trial.name;
  rec.params = trial.params;
  const auto t0 = Clock::now();
  const int max_attempts = 1 + std::max(opts.retries, 0);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    rec.attempts = attempt;
    if (!run_attempt(trial, slot, rec, wedge)) {
      rec.timed_out = false;
      break;
    }
    rec.timed_out = true;
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "exceeded --trial-timeout %.3gs on %d attempt(s)",
                  opts.trial_timeout_s, attempt);
    rec.error = msg;
    rec.metrics = ParamSet{};
  }
  rec.wall_ms = ms_since(t0);
  return rec;
}

class Progress {
 public:
  Progress(bool enabled, std::FILE* out, const std::string& name,
           std::size_t total)
      : enabled_(enabled), out_(out ? out : stderr), name_(name),
        total_(total), t0_(Clock::now()) {}

  void tick(std::size_t done) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const double elapsed = ms_since(t0_) / 1000.0;
    const double eta =
        done ? elapsed / static_cast<double>(done) *
                   static_cast<double>(total_ - done)
             : 0.0;
    std::fprintf(out_, "\r[%s] %zu/%zu trials, %.1fs elapsed, eta %.1fs ",
                 name_.c_str(), done, total_, elapsed, eta);
    if (done == total_) std::fprintf(out_, "\n");
    std::fflush(out_);
  }

 private:
  bool enabled_;
  std::FILE* out_;
  std::string name_;
  std::size_t total_;
  Clock::time_point t0_;
  std::mutex mu_;
};

/// Shard i of n over N trials: the contiguous id range
/// [floor(i*N/n), floor((i+1)*N/n)).
std::pair<std::size_t, std::size_t> shard_range(std::size_t n_trials,
                                                int index, int count) {
  if (count <= 1) return {0, n_trials};
  const auto lo = static_cast<std::size_t>(
      static_cast<unsigned long long>(index) * n_trials /
      static_cast<unsigned long long>(count));
  const auto hi = static_cast<std::size_t>(
      (static_cast<unsigned long long>(index) + 1) * n_trials /
      static_cast<unsigned long long>(count));
  return {lo, hi};
}

}  // namespace

CampaignResult run_campaign(const Campaign& campaign, const PoolOptions& opts) {
  const std::size_t n = campaign.trials.size();
  CampaignResult result;
  result.campaign = campaign.name;
  result.seed = campaign.seed;
  result.trials.resize(n);

  const JournalHeader header = journal_header_for(campaign);

  // --- resume: load journals, prefill completed slots ----------------------
  std::vector<bool> resumed(n, false);
  /// Trials whose record already lives in opts.journal_path itself (no
  /// need to re-append them below).
  std::vector<bool> in_journal(n, false);
  std::size_t resumed_count = 0;
  for (const std::string& path : opts.resume_paths) {
    {
      std::FILE* probe = std::fopen(path.c_str(), "rb");
      if (probe == nullptr) continue;  // fresh start: nothing to resume yet
      std::fclose(probe);
    }
    LoadedJournal loaded = load_journal(path);
    if (loaded.header != header)
      throw JournalError("cannot resume from " + path +
                         ": fingerprint mismatch (journal has " +
                         loaded.header.describe() + ", campaign is " +
                         header.describe() + ")");
    for (JournalEntry& e : loaded.entries) {
      if (e.trial >= n || e.rec.name != campaign.trials[e.trial].name)
        throw JournalError("journal " + path + " record '" + e.rec.name +
                           "' does not match campaign trial " +
                           std::to_string(e.trial));
      if (!resumed[e.trial]) ++resumed_count;
      resumed[e.trial] = true;
      if (path == opts.journal_path) in_journal[e.trial] = true;
      // Later records supersede earlier ones (a re-appended trial).
      result.trials[e.trial] = std::move(e.rec);
      // The campaign's params are the source of truth (the fingerprint
      // guarantees they serialize identically to what the journal holds).
      result.trials[e.trial].params = campaign.trials[e.trial].params;
    }
  }

  // --- journal writer ------------------------------------------------------
  JournalWriter journal;
  std::mutex journal_mu;
  if (!opts.journal_path.empty()) {
    journal = JournalWriter::open_or_create(opts.journal_path, header);
    // Copy records resumed from *other* journals in, so merging N shard
    // journals (--resume each, --journal merged) yields one self-contained
    // store and the shard files can be discarded.
    for (std::size_t i = 0; i < n; ++i)
      if (resumed[i] && !in_journal[i]) journal.append(i, result.trials[i]);
  }

  // --- work list: this shard's not-yet-completed trials --------------------
  const auto [shard_lo, shard_hi] =
      shard_range(n, opts.shard_index, opts.shard_count);
  std::vector<std::size_t> todo;
  todo.reserve(shard_hi - shard_lo);
  for (std::size_t i = shard_lo; i < shard_hi; ++i)
    if (!resumed[i]) todo.push_back(i);
  for (std::size_t i = 0; i < n; ++i)
    if (!resumed[i] && (i < shard_lo || i >= shard_hi)) {
      result.trials[i].name = campaign.trials[i].name;
      result.trials[i].params = campaign.trials[i].params;
      result.trials[i].skipped = true;
    }

  if (resumed_count > 0 && opts.progress)
    std::fprintf(opts.progress_out ? opts.progress_out : stderr,
                 "[%s] resumed %zu/%zu completed trials from journal\n",
                 campaign.name.c_str(), resumed_count, n);

  int jobs = opts.jobs;
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  jobs = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(jobs), std::max<std::size_t>(todo.size(), 1)));
  result.jobs = jobs;

  const auto t0 = Clock::now();
  Progress progress(opts.progress, opts.progress_out, campaign.name,
                    todo.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  std::vector<WorkerSlot> slots(static_cast<std::size_t>(jobs));
  std::optional<Watchdog> watchdog;
  if (opts.trial_timeout_s > 0) watchdog.emplace(slots, opts.trial_timeout_s);

  const auto worker = [&](int worker_idx) {
    WorkerSlot& slot = slots[static_cast<std::size_t>(worker_idx)];
    for (;;) {
      const std::size_t w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= todo.size()) return;
      const std::size_t i = todo[w];
      const bool wedge = !opts.wedge_trial.empty() &&
                         campaign.trials[i].name == opts.wedge_trial;
      result.trials[i] = run_one(campaign.trials[i], slot, opts, wedge);
      if (journal.is_open()) {
        std::lock_guard<std::mutex> lock(journal_mu);
        journal.append(i, result.trials[i]);
      }
      progress.tick(done.fetch_add(1, std::memory_order_relaxed) + 1);
    }
  };

  if (jobs == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) threads.emplace_back(worker, j);
    for (auto& t : threads) t.join();
  }

  result.wall_ms = ms_since(t0);
  return result;
}

}  // namespace gfc::exp
