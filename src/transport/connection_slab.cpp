#include "transport/connection_slab.hpp"

#include "transport/host.hpp"

namespace speakup::transport {

#if SPEAKUP_AUDIT_ENABLED
void ConnectionSlab::audit() const {
  std::vector<std::uint8_t> freed(size_, 0);
  std::uint32_t free_count = 0;
  for (std::uint32_t slot = free_head_; slot != kNil; slot = (*this)[slot].next_free) {
    SPEAKUP_AUDIT_CHECK(slot < size_, "ConnectionSlab: free-list slot out of range");
    SPEAKUP_AUDIT_CHECK(!freed[slot], "ConnectionSlab: slot freed more than once");
    SPEAKUP_AUDIT_CHECK((*this)[slot].state == SlotState::kEmpty,
                        "ConnectionSlab: free-list slot must be empty");
    freed[slot] = 1;
    ++free_count;
  }
  std::uint32_t empty = 0;
  for (std::uint32_t slot = 0; slot < size_; ++slot) {
    const Record& r = (*this)[slot];
    if (r.state == SlotState::kEmpty) {
      ++empty;
      continue;
    }
    SPEAKUP_AUDIT_CHECK(r.state != SlotState::kReleasing || r.release_ev.pending(),
                        "ConnectionSlab: releasing slot must hold a pending destroy event");
    const TcpConnection* conn = r.conn();
    SPEAKUP_AUDIT_CHECK(conn->host().find_connection(conn->local_port(), conn->remote_node(),
                                                     conn->remote_port()) == conn,
                        "ConnectionSlab: every connection must be tabled by its host");
  }
  SPEAKUP_AUDIT_CHECK(free_count == empty,
                      "ConnectionSlab: free list must cover exactly the empty slots");
  SPEAKUP_AUDIT_CHECK(size_ - empty == in_use_, "ConnectionSlab: in_use_ must count the records");
}
#endif

}  // namespace speakup::transport
