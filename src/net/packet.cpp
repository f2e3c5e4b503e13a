#include "net/packet.hpp"

namespace gfc::net {

Packet* PacketPool::acquire() {
  if (free_list_.empty()) {
    auto chunk = std::make_unique<Packet[]>(kChunk);
    free_list_.reserve(free_list_.size() + kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) free_list_.push_back(&chunk[i]);
    chunks_.push_back(std::move(chunk));
  }
  Packet* pkt = free_list_.back();
  free_list_.pop_back();
  *pkt = Packet{};
  pkt->id = next_id_++;
  ++live_;
  return pkt;
}

void PacketPool::release(Packet* pkt) {
  --live_;
  free_list_.push_back(pkt);
}

}  // namespace gfc::net
