// The mechanism registry: every deadlock-handling baseline the benches
// compare, by name, in one deterministic list — the rows of the
// mechanism x scenario matrix (bench/fault_sweep group "matrix",
// bench/table1_deadlock_cases).
//
// Three strategy families, all behind the same runner::FcSetup seam:
//   prevention  — GFC variants and CBFC (the paper's subject and its
//                 credit-based ancestor): deadlock cannot form.
//   detection   — DCFIT (src/mech/dcfit.*): classic PFC, deadlocks form
//                 and are detected in-band and broken.
//   avoidance   — CBD-free up*/down* routing (src/mech/cbd_routing.*):
//                 classic PFC on a route-restricted fabric with no cyclic
//                 buffer dependency to wedge.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "runner/config.hpp"

namespace gfc::mech {

struct MechSpec {
  std::string name;  // stable CLI / JSON / report identifier
  runner::FcKind kind = runner::FcKind::kNone;
  /// Self-healing knobs on (PFC pause expiry / CBFC credit re-sync), as in
  /// the fault studies.
  bool heal = false;
  runner::DcfitBreak dcfit_break = runner::DcfitBreak::kDropOne;
  /// Replace the scenario routing with mech::cbd_free_routes.
  bool cbd_free_routing = false;
};

/// Every registered mechanism, in the fixed matrix row order:
/// PFC, PFC+expiry, CBFC, CBFC+sync, GFC-buffer, GFC-time, GFC-conceptual,
/// DCFIT-drop, DCFIT-bypass, CBD-routing.
const std::vector<MechSpec>& all_mechanisms();

/// The spec realized as a paper-compliant FcSetup for this buffer / rate /
/// tau (FcSetup::try_derive plus the spec's heal / break / routing knobs);
/// nullopt when the buffer is too small for the spec's safety bound.
std::optional<runner::FcSetup> setup_for(const MechSpec& spec,
                                         std::int64_t buffer, sim::Rate c,
                                         sim::TimePs tau,
                                         std::int64_t mtu = 1500);

/// The control-frame type whose loss wedges this mechanism (the fault
/// studies' injection target).
net::PacketType unblock_frame(runner::FcKind kind);

}  // namespace gfc::mech
