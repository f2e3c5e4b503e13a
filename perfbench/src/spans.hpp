// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer: name, start, end, the span that
// was open when it started (its parent), the op it belongs to and the
// benchmark segment (workload) that issued it. Each thread appends to its
// own log, so worker-pool trials record without locking; the logs are only
// read after every worker has joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  int segment = 0;
  int thread = 0;
  int parent = -1;  // index into the same thread's log; -1 for a root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class ThreadLog {
 public:
  ThreadLog(Clock::time_point epoch, int thread)
      : epoch_(epoch), thread_(thread) {}

  /// Tags the spans opened from now on with this segment and op.
  void begin_op(int segment, std::uint64_t op) {
    segment_ = segment;
    op_ = op;
  }

  int open(const char* name) {
    records_.push_back({name, segment_, thread_, current_, op_, now_ns(), 0});
    current_ = static_cast<int>(records_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    SpanRecord& r = records_[static_cast<std::size_t>(idx)];
    r.end_ns = now_ns();
    current_ = r.parent;
  }

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  int thread_;
  int segment_ = 0;
  std::uint64_t op_ = 0;
  int current_ = -1;
  std::vector<SpanRecord> records_;
};

/// Owns one ThreadLog per recording thread.
class Spans {
 public:
  Spans() : epoch_(Clock::now()) {}

  /// The calling thread's log, created on first use.
  ThreadLog* thread_log() {
    std::lock_guard<std::mutex> lock(mu_);
    auto& log = logs_[std::this_thread::get_id()];
    if (!log)
      log = std::make_unique<ThreadLog>(epoch_, static_cast<int>(logs_.size()) - 1);
    return log.get();
  }

  /// Every record, thread by thread. Call only once recording threads
  /// have finished.
  std::vector<const ThreadLog*> logs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const ThreadLog*> out;
    for (const auto& [id, log] : logs_) out.push_back(log.get());
    return out;
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span; does nothing when `log` is null (the untraced run).
class Span {
 public:
  Span(ThreadLog* log, const char* name)
      : log_(log), idx_(log != nullptr ? log->open(name) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLog* log_;
  int idx_;
};

/// Calls, inclusive time and self time (inclusive minus direct children)
/// of every span with one name in one segment.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
  double mean_ms() const { return calls ? total_ms / static_cast<double>(calls) : 0; }
};

using LayerTable = std::map<std::pair<int, std::string>, SpanTotals>;

inline LayerTable layer_table(const Spans& spans) {
  LayerTable table;
  for (const ThreadLog* log : spans.logs()) {
    const auto& recs = log->records();
    std::vector<std::int64_t> child_ns(recs.size(), 0);
    for (const SpanRecord& r : recs)
      if (r.parent >= 0)
        child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      SpanTotals& t = table[{r.segment, r.name}];
      const std::int64_t dur = r.end_ns - r.start_ns;
      ++t.calls;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
  }
  return table;
}

/// One CSV line per span: segment,thread,op,name,parent,start_ns,end_ns.
inline bool write_spans_csv(const Spans& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("segment,thread,op,name,parent,start_ns,end_ns\n", f);
  for (const ThreadLog* log : spans.logs())
    for (const SpanRecord& r : log->records())
      std::fprintf(f, "%d,%d,%llu,%s,%d,%lld,%lld\n", r.segment, r.thread,
                   static_cast<unsigned long long>(r.op), r.name, r.parent,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
