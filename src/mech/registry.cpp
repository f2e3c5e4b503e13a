#include "mech/registry.hpp"

namespace gfc::mech {

using runner::DcfitBreak;
using runner::FcKind;
using runner::FcSetup;

const std::vector<MechSpec>& all_mechanisms() {
  static const std::vector<MechSpec> kMechs = [] {
    std::vector<MechSpec> m;
    m.push_back({"PFC", FcKind::kPfc});
    m.push_back({"PFC+expiry", FcKind::kPfc, /*heal=*/true});
    m.push_back({"CBFC", FcKind::kCbfc});
    m.push_back({"CBFC+sync", FcKind::kCbfc, /*heal=*/true});
    m.push_back({"GFC-buffer", FcKind::kGfcBuffer});
    m.push_back({"GFC-time", FcKind::kGfcTime});
    m.push_back({"GFC-conceptual", FcKind::kGfcConceptual});
    m.push_back({"DCFIT-drop", FcKind::kDcfit, false, DcfitBreak::kDropOne});
    m.push_back({"DCFIT-bypass", FcKind::kDcfit, false, DcfitBreak::kBypass});
    MechSpec updown{"CBD-routing", FcKind::kPfc};
    updown.cbd_free_routing = true;
    m.push_back(updown);
    return m;
  }();
  return kMechs;
}

std::optional<FcSetup> setup_for(const MechSpec& spec, std::int64_t buffer,
                                 sim::Rate c, sim::TimePs tau,
                                 std::int64_t mtu) {
  std::optional<FcSetup> fc = FcSetup::try_derive(spec.kind, buffer, c, tau, mtu);
  if (!fc) return std::nullopt;
  if (spec.heal) {
    // Pause expiry well above the refresh the pauser sends every timeout/2,
    // so a healthy run never expires early; credit re-sync every ~2 periods
    // (the fault studies' healing configuration).
    fc->pfc_pause_timeout = sim::us(50);
    fc->cbfc_sync_period = sim::us(100);
  }
  fc->dcfit_break = spec.dcfit_break;
  fc->cbd_free_routing = spec.cbd_free_routing;
  return fc;
}

net::PacketType unblock_frame(FcKind kind) {
  switch (kind) {
    case FcKind::kPfc:
    case FcKind::kDcfit: return net::PacketType::kPfcResume;
    case FcKind::kCbfc: return net::PacketType::kCredit;
    case FcKind::kGfcBuffer: return net::PacketType::kGfcStage;
    default: return net::PacketType::kGfcQueue;  // time-based GFC
  }
}

}  // namespace gfc::mech
