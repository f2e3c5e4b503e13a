// Flow descriptor shared by hosts, workload generators, congestion control
// and statistics. The network is lossless and delivers in order, so flow
// completion is simply "destination received size_bytes".
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace gfc::net {

struct Flow {
  FlowId id = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint8_t priority = 0;

  /// Total bytes to transfer; kUnbounded for permanent flows used in
  /// deadlock scenarios.
  static constexpr std::int64_t kUnbounded = -1;
  std::int64_t size_bytes = kUnbounded;

  sim::TimePs start_time = 0;
  sim::TimePs finish_time = -1;

  /// Sender-side pacing rate (line rate unless congestion control lowers
  /// it). This is the "DCQCN rate" knob in the paper's Figure 20.
  sim::Rate send_rate{0};  // 0 = unlimited (host NIC line rate)

  /// ECMP salt: switches hash this to pick among equal-cost next hops.
  std::uint64_t path_salt = 0;

  // Progress.
  std::int64_t bytes_enqueued = 0;   // handed to the sender NIC
  std::int64_t bytes_delivered = 0;  // arrived at the destination

  bool unbounded() const { return size_bytes == kUnbounded; }
  bool sender_done() const { return !unbounded() && bytes_enqueued >= size_bytes; }
  bool completed() const { return !unbounded() && bytes_delivered >= size_bytes; }
};

}  // namespace gfc::net
