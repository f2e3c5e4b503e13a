// Hook point for runtime fault injection on link-control frames.
//
// An egress port consults the installed hook once per link-control frame
// at the wire hand-off (transmission complete, before propagation), and
// the only fault is loss. Data packets are never consulted: the lossless
// fabrics under study drop control frames (tiny, unacknowledged, fate-
// shared with a flapping link) long before they corrupt data, and keeping
// data untouched preserves the lossless-violation accounting. With no hook
// installed the path is a single null check — baseline runs are bit-for-bit
// unchanged.
#pragma once

#include "net/packet.hpp"

namespace gfc::net {

class ControlFaultHook {
 public:
  virtual ~ControlFaultHook() = default;

  /// True when the link-control frame entering the wire is lost on it.
  virtual bool drop(const Packet& pkt) = 0;
};

}  // namespace gfc::net
