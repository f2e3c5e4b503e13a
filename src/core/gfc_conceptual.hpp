// Conceptual GFC (Sec. 4.1): continuous feedback, used for the Figure 5
// study and as the reference the practical designs approximate.
//
// Truly continuous feedback is unimplementable (and is exactly why the
// paper moves to the practical designs); we approximate it by emitting a
// queue-length sample whenever the occupancy moved by kMinDeltaBytes since
// the last report. The backward-bandwidth cost this incurs is part
// of what the Figure 5 bench demonstrates.
#pragma once

#include <array>
#include <vector>

#include "core/mapping.hpp"
#include "core/rate_limiter.hpp"

namespace gfc::core {

class GfcConceptualModule final : public RateAdjuster {
 public:
  /// Occupancy change that triggers a new queue-length report.
  static constexpr std::int64_t kMinDeltaBytes = 512;

  explicit GfcConceptualModule(const LinearMapping& mapping)
      : RateAdjuster(net::PacketType::kGfcQueue), mapping_(mapping) {}

  void on_ingress_enqueue(int port, int prio, const net::Packet& pkt) override;
  void on_ingress_dequeue(int port, int prio, const net::Packet& pkt) override;
  const char* name() const override { return "GFC-conceptual"; }

  const LinearMapping& mapping() const { return mapping_; }

 protected:
  void on_attach() override;
  sim::Rate on_feedback(int port, const net::Packet& pkt) override;

 private:
  void maybe_report(int port, int prio);

  LinearMapping mapping_;
  std::vector<std::array<std::int64_t, net::kNumPriorities>> last_sent_q_;
};

}  // namespace gfc::core
