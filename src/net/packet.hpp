// Packet model and pool.
//
// One Packet struct covers data packets and every control frame the
// flow-control mechanisms exchange (PFC pause/resume, GFC stage messages,
// CBFC credit updates, DCQCN CNPs). Control frames are 64 B on the wire,
// matching the paper's feedback-message size m.
#pragma once

#include <cassert>
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

/// One packet in exactly one 64-byte cache line: the FIFO link, the size
/// and every header field a hop reads sit on the same line. Routed packets
/// (data and CNPs) and link-control frames never need each other's
/// payload, so the two share 16 bytes behind kind-checked accessors.
struct alignas(64) Packet {
  /// PacketFifo link. A packet sits in at most one queue at a time (a node
  /// FIFO, a control lane or a wire), so one link serves them all.
  Packet* next = nullptr;
  std::uint64_t id = 0;
  sim::TimePs created_at = 0;  // for latency accounting

  NodeId src = kInvalidNode;  // originating host (data / CNP)
  NodeId dst = kInvalidNode;  // destination host (data / CNP)
  std::int32_t size_bytes = 0;  // wire size, used for all timing/accounting
  std::int32_t fc_stage = 0;    // kGfcStage: stage index

  /// Per-hop state: ingress port at the switch currently buffering the
  /// packet (charged back on departure) and the egress its route selected.
  std::int16_t ingress_port = -1;
  std::int16_t out_port = -1;

  PacketType type = PacketType::kData;
  std::uint8_t priority = 0;
  std::uint8_t fc_priority = 0;  // priority a control frame acts on
  /// ECN congestion-experienced mark (set by switches, read by receivers).
  bool ecn_ce = false;

  /// True for frames that bypass data queues at the egress port.
  bool is_control() const { return is_link_control(type); }

  // --- routed payload (kData, kCnp) ----------------------------------------
  FlowId flow() const {
    assert(!is_control());
    return static_cast<FlowId>(payload_[0]) - 1;
  }
  /// Copy of Flow::path_salt, stamped wherever the flow is assigned, so the
  /// per-hop ECMP choice reads it without dereferencing the flow table.
  std::uint64_t path_salt() const {
    assert(!is_control());
    return payload_[1];
  }
  void set_flow(FlowId flow, std::uint64_t path_salt) {
    assert(!is_control());
    payload_[0] = static_cast<std::uint64_t>(flow + 1);
    payload_[1] = path_salt;
  }

  // --- link-control payload ---------------------------------------------
  /// kGfcQueue: queue bytes; kCredit: FCCL blocks.
  std::int64_t fc_value() const {
    assert(is_control());
    return static_cast<std::int64_t>(payload_[0]);
  }
  void set_fc_value(std::int64_t v) {
    assert(is_control());
    payload_[0] = static_cast<std::uint64_t>(v);
  }
  /// DCFIT deadlock-detection trigger carried by kPfcPause frames (see
  /// src/mech/dcfit.hpp): the switch that originated the trigger and its
  /// node-local sequence number. kInvalidNode = no trigger attached.
  NodeId fc_trigger_origin() const {
    assert(is_control());
    return static_cast<NodeId>(static_cast<std::uint32_t>(payload_[1])) - 1;
  }
  std::uint32_t fc_trigger_seq() const {
    assert(is_control());
    return static_cast<std::uint32_t>(payload_[1] >> 32);
  }
  void set_fc_trigger(NodeId origin, std::uint32_t seq) {
    assert(is_control());
    payload_[1] = static_cast<std::uint32_t>(origin + 1) |
                  (std::uint64_t{seq} << 32);
  }

 private:
  // Two words shared by the two kinds. Routed: [0] flow + 1, [1] path
  // salt. Link control: [0] fc_value, [1] trigger origin + 1 (low half)
  // and trigger seq (high half). The ids are stored plus one so that zero
  // words read as both kinds' defaults (flow kInvalidFlow, salt 0;
  // fc_value 0, origin kInvalidNode, seq 0): a fresh packet is correct
  // whichever kind its type later makes it.
  std::uint64_t payload_[2] = {0, 0};
};

static_assert(sizeof(Packet) == 64 && alignof(Packet) == 64,
              "a packet is exactly one cache line");

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
