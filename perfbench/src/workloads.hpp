// The four benchmark workloads. Each is a closed loop over ops of similar
// size that calls the library's public entry points the way the
// user-facing runs do (see perfbench/README.md for why each exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Which workload issued a span; also the order of the traced run.
enum Segment { kScreen = 0, kSweep = 1, kSim = 2, kCampaign = 3 };

/// One timed region of a closed loop.
struct LoopStats {
  std::vector<double> op_ms;  // wall time of every completed op
  std::size_t attempted = 0;
  std::size_t failed = 0;     // ops that threw
  double wall_s = 0;          // loop start to the end of the last op
  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(op_ms.size()) / wall_s : 0;
  }
};

/// Output checks and exact-repeat values, gathered outside timed regions.
class CheckLog {
 public:
  /// An op whose outputs are wrong; it counts as a failed op.
  void op_failed(const std::string& workload, std::size_t op,
                 const std::string& why);
  /// A run-level check (digest agreement, byte identity) that failed.
  void check_failed(const std::string& why);
  /// Records an exact-repeat value. Recording one key twice with two
  /// values fails a check: reruns of one op set must agree.
  void exact(const std::string& key, const std::string& value);
  /// stderr lines the library is expected to print (truncation warnings).
  void expect_warnings(std::uint64_t n) { expected_warnings_ += n; }

  std::size_t failed_ops() const { return failed_ops_; }
  std::size_t failed_checks() const { return failed_checks_; }
  std::uint64_t expected_warnings() const { return expected_warnings_; }
  const std::vector<std::pair<std::string, std::string>>& exact_values() const {
    return exact_;
  }

 private:
  std::size_t failed_ops_ = 0;
  std::size_t failed_checks_ = 0;
  std::uint64_t expected_warnings_ = 0;
  std::vector<std::pair<std::string, std::string>> exact_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual Segment segment() const = 0;
  /// Builds the input list and warms up. Each call replaces the previous
  /// state, so repeated calls time repeated set-ups.
  virtual void setup(Spans* spans) = 0;
  /// Runs ops 0, 1, ... until `seconds` have passed, or exactly `ops` ops
  /// when ops > 0. With `spans`, records spans around each layer call.
  virtual LoopStats run(double seconds, std::size_t ops, Spans* spans) = 0;
  /// Checks the outputs of the last run() and records its exact values.
  virtual void check(CheckLog* log) = 0;
  /// Per-layer metrics from the last run(), which must have been traced.
  virtual void layer_metrics(const LayerTable& table, Metrics* out) const = 0;
  /// Size of the traced op set for a run of `seconds`.
  virtual std::size_t traced_ops(double seconds) const = 0;
};

const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
