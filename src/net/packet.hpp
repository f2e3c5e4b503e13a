// Packet model and pool.
//
// One Packet struct covers data packets and every control frame the
// flow-control mechanisms exchange (PFC pause/resume, GFC stage messages,
// CBFC credit updates, DCQCN CNPs). Control frames are 64 B on the wire,
// matching the paper's feedback-message size m.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace gfc::net {

using NodeId = std::int32_t;
using FlowId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr FlowId kInvalidFlow = -1;

/// Number of traffic classes (priorities) modeled, as in 802.1Qbb.
inline constexpr int kNumPriorities = 8;

/// Wire size of a flow-control / congestion-notification frame (bytes).
inline constexpr std::int64_t kControlFrameBytes = 64;

enum class PacketType : std::uint8_t {
  kData = 0,
  kPfcPause,    // PFC XOFF for one priority
  kPfcResume,   // PFC XON for one priority
  kGfcStage,    // buffer-based GFC: stage id for one priority
  kGfcQueue,    // time-based / conceptual GFC: queue-length sample
  kCredit,      // CBFC: FCCL update for one priority
  kCnp,         // DCQCN congestion notification packet (routed like data)
};

/// Is this a link-local flow-control frame (consumed by the adjacent node,
/// never forwarded, never subject to pause or rate limiting)?
constexpr bool is_link_control(PacketType t) {
  return t == PacketType::kPfcPause || t == PacketType::kPfcResume ||
         t == PacketType::kGfcStage || t == PacketType::kGfcQueue ||
         t == PacketType::kCredit;
}

struct Packet {
  std::uint64_t id = 0;
  PacketType type = PacketType::kData;
  std::uint8_t priority = 0;
  std::int64_t size_bytes = 0;  // wire size, used for all timing/accounting

  NodeId src = kInvalidNode;  // originating host (data / CNP)
  NodeId dst = kInvalidNode;  // destination host (data / CNP)
  FlowId flow = kInvalidFlow;
  /// Copy of Flow::path_salt, stamped wherever `flow` is assigned, so the
  /// per-hop ECMP choice reads it without dereferencing the flow table.
  std::uint64_t path_salt = 0;

  /// Per-hop state: ingress port at the switch currently buffering the
  /// packet (charged back on departure) and the egress its route selected.
  std::int32_t ingress_port = -1;
  std::int32_t out_port = -1;

  /// ECN congestion-experienced mark (set by switches, read by receivers).
  bool ecn_ce = false;

  /// Control payloads (interpretation depends on `type`).
  std::int32_t fc_priority = 0;  // priority the control frame acts on
  std::int32_t fc_stage = 0;     // kGfcStage: stage index
  std::int64_t fc_value = 0;     // kGfcQueue: queue bytes; kCredit: FCCL blocks

  /// DCFIT deadlock-detection trigger carried by kPfcPause frames (see
  /// src/mech/dcfit.hpp): the switch that originated the trigger and its
  /// node-local sequence number. kInvalidNode = no trigger attached.
  std::int32_t fc_trigger_origin = kInvalidNode;
  std::uint64_t fc_trigger_seq = 0;

  sim::TimePs created_at = 0;  // for latency accounting

  /// PacketFifo link. A packet sits in at most one queue at a time (a node
  /// FIFO, a control lane or a wire), so one link serves them all.
  Packet* next = nullptr;

  /// True for frames that bypass data queues at the egress port.
  bool is_control() const { return is_link_control(type); }
};

/// FIFO of packets linked through Packet::next, with its byte total. It
/// allocates nothing: an empty queue is three words.
class PacketFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  Packet* front() const { return head_; }
  std::int64_t bytes() const { return bytes_; }

  void push_back(Packet* pkt) {
    pkt->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = pkt;
    tail_ = pkt;
    bytes_ += pkt->size_bytes;
  }

  /// Remove and return the head; the queue must not be empty.
  Packet* pop_front() {
    Packet* pkt = head_;
    head_ = pkt->next;
    if (head_ == nullptr) tail_ = nullptr;
    bytes_ -= pkt->size_bytes;
    return pkt;
  }

 private:
  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  std::int64_t bytes_ = 0;
};

/// Free-list pool. Packets are created/destroyed at very high rate; the
/// pool keeps them out of the general-purpose allocator and stabilizes ids.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Fetch a zeroed packet with a fresh id.
  Packet* acquire();

  /// Return a packet to the pool. Pointer must have come from acquire().
  void release(Packet* pkt);

  std::size_t live_count() const { return live_; }
  std::uint64_t total_created() const { return next_id_ - 1; }

 private:
  static constexpr std::size_t kChunk = 1024;

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_list_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace gfc::net
