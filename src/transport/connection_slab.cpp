#include "transport/connection_slab.hpp"

#include "transport/host.hpp"

namespace speakup::transport {

#if SPEAKUP_AUDIT_ENABLED
void ConnectionSlab::audit() const {
  const std::vector<std::uint8_t> live = Slab::audit();
  for (std::uint32_t slot = 0; slot < size(); ++slot) {
    if (!live[slot]) continue;
    const ConnectionRecord& r = (*this)[slot];
    SPEAKUP_AUDIT_CHECK(!r.releasing || r.release_ev.pending(),
                        "ConnectionSlab: releasing slot must hold a pending destroy event");
    SPEAKUP_AUDIT_CHECK(r.conn.host().find_connection(r.conn.local_port(), r.conn.remote_node(),
                                                      r.conn.remote_port()) == &r.conn,
                        "ConnectionSlab: every connection must be tabled by its host");
  }
}
#endif

}  // namespace speakup::transport
