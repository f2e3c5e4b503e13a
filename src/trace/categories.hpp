// Trace categories and event types.
//
// Categories are compile-time constants; the event-type -> category
// mapping is a constexpr switch that folds away at every call site that
// passes a literal EventType.
#pragma once

#include <cstdint>

namespace gfc::trace {

/// Category bit flags. A Tracer records an event iff its category bit is
/// set in the runtime mask; `kCatAll` is the default.
enum Category : std::uint32_t {
  kCatPort = 1u << 0,      // egress/ingress queue enqueue, dequeue, drop
  kCatLink = 1u << 1,      // link down/up, packets lost on a dead wire
  kCatPfc = 1u << 2,       // PFC PAUSE / RESUME, sent and received
  kCatCredit = 1u << 3,    // CBFC credit grants and credit exhaustion
  kCatGfc = 1u << 4,       // GFC stage crossings, queue samples, rate changes
  kCatSched = 1u << 5,     // egress-port wake-timer arm / cancel / fire
  kCatDeadlock = 1u << 6,  // deadlock detection and recovery
  kCatFlow = 1u << 7,      // flow start / completion, host deliveries
  kCatMech = 1u << 8,      // mechanism baselines: DCFIT triggers and breaks
  kCatAnalyze = 1u << 9,   // static re-analysis verdicts on routing installs
  kCatAll = 0x3FFu,
};

inline constexpr int kNumCategories = 10;

enum class EventType : std::uint8_t {
  // kCatPort
  kPortEnqueue = 0,  // data packet queued at an egress port (hosts)
  kTxStart,          // data packet started transmitting
  kIngressEnqueue,   // switch ingress accounting charged (value = bytes now)
  kIngressDequeue,   // switch ingress accounting released (value = bytes now)
  kDrop,             // packet discarded (unroutable / failover / recovery)
  // kCatLink
  kLinkDown,
  kLinkUp,
  kWireLost,  // in flight when the link went down
  // kCatPfc
  kPauseTx,
  kPauseRx,
  kResumeTx,
  kResumeRx,
  // kCatCredit
  kCreditTx,         // FCCL advertisement sent (value = FCCL blocks)
  kCreditRx,         // FCCL advertisement applied upstream
  kCreditExhausted,  // gate newly out of credits (edge-triggered)
  // kCatGfc
  kStageTx,    // buffer-based GFC stage feedback sent (value = stage)
  kStageRx,    // stage feedback applied upstream
  kQsampleTx,  // time-based/conceptual queue sample sent (value = bytes)
  kQsampleRx,  // queue sample applied upstream
  kRateSet,    // rate limiter reprogrammed (value = rate in bps)
  // kCatSched
  kWakeArm,     // wake timer armed (value = absolute wake instant)
  kWakeCancel,  // wake timer cancelled
  kWakeFire,    // wake timer fired
  // kCatDeadlock
  kDeadlockDetect,   // confirmed: one event per witness-cycle port
  kDeadlockRecover,  // recovery drained a cycle port (value = packets dropped)
  // kCatFlow
  kFlowStart,
  kFlowComplete,
  kDeliver,  // data packet delivered at a host (value = bytes, id = flow)
  // kCatMech (DCFIT, src/mech/dcfit.*)
  kTriggerOriginate,  // fresh trigger attached to a PAUSE (id = trigger seq)
  kTriggerPropagate,  // upstream trigger forwarded (value = origin node)
  kTriggerReturn,     // own trigger came back: deadlock (value = latency ps)
  kMechBreak,         // break action taken (value = packets dropped; 0=bypass)
  // kCatAnalyze (incremental re-analysis, src/analyze/incremental.*)
  kAnalyzeVerdict,  // verdict after a routing install (id = re-verdict
                    // ordinal, value = analyze::Verdict enum value)

  kNumEventTypes,  // sentinel
};

constexpr Category category_of(EventType t) {
  switch (t) {
    case EventType::kPortEnqueue:
    case EventType::kTxStart:
    case EventType::kIngressEnqueue:
    case EventType::kIngressDequeue:
    case EventType::kDrop:
      return kCatPort;
    case EventType::kLinkDown:
    case EventType::kLinkUp:
    case EventType::kWireLost:
      return kCatLink;
    case EventType::kPauseTx:
    case EventType::kPauseRx:
    case EventType::kResumeTx:
    case EventType::kResumeRx:
      return kCatPfc;
    case EventType::kCreditTx:
    case EventType::kCreditRx:
    case EventType::kCreditExhausted:
      return kCatCredit;
    case EventType::kStageTx:
    case EventType::kStageRx:
    case EventType::kQsampleTx:
    case EventType::kQsampleRx:
    case EventType::kRateSet:
      return kCatGfc;
    case EventType::kWakeArm:
    case EventType::kWakeCancel:
    case EventType::kWakeFire:
      return kCatSched;
    case EventType::kDeadlockDetect:
    case EventType::kDeadlockRecover:
      return kCatDeadlock;
    case EventType::kTriggerOriginate:
    case EventType::kTriggerPropagate:
    case EventType::kTriggerReturn:
    case EventType::kMechBreak:
      return kCatMech;
    case EventType::kAnalyzeVerdict:
      return kCatAnalyze;
    default:
      return kCatFlow;
  }
}

/// Stable lowercase identifier, used by both exporters and the CSV parser.
const char* type_name(EventType t);

/// "port", "pfc", ... (single category bit -> name).
const char* category_name(Category c);

}  // namespace gfc::trace
