// Time-based GFC (Sec. 5.2): the CBFC-style deployment.
//
// Downstream half keeps CBFC's periodic Message Generator: every `period`
// it reports the ingress queue length (equivalent information to the
// credit/remaining-buffer field CBFC already carries). Upstream half maps
// the sample through the conceptual linear function, whose B_0 must respect
// Theorem 5.1, and programs the Rate Limiter.
#pragma once

#include "core/mapping.hpp"
#include "core/rate_limiter.hpp"

namespace gfc::core {

class GfcTimeModule final : public RateAdjuster {
 public:
  GfcTimeModule(const LinearMapping& mapping, sim::TimePs period)
      : RateAdjuster(net::PacketType::kGfcQueue),
        mapping_(mapping),
        period_(period) {}

  const char* name() const override { return "GFC-time"; }

  const LinearMapping& mapping() const { return mapping_; }
  sim::TimePs period() const { return period_; }

 protected:
  void on_attach() override;
  sim::Rate on_feedback(int port, const net::Packet& pkt) override;

 private:
  void arm_timer(int port);
  void send_samples(int port);

  LinearMapping mapping_;
  sim::TimePs period_;
};

}  // namespace gfc::core
