// The public (unauthenticated) channel the protocol messages traverse.
//
// Per the threat model (Sec. III), Eve has full knowledge of the protocol
// and can eavesdrop, inject and replay messages. PublicChannel therefore
// keeps a complete transcript (Eve's view) and exposes an interception hook
// through which an active attacker can drop, modify or forge traffic before
// delivery. Delivery itself belongs to the link on top (UnreliableChannel),
// which hands every frame to transmit() and delivers what survives on its
// own clock.
//
// The transcript is one flat log of the frames' v1 encodings
// (protocol/wire.h), written back to back: it grows geometrically from an
// initial reservation, so logging a frame allocates nothing once the log
// is warm. transcript() decodes it on demand.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "protocol/message.h"

namespace vkey::protocol {

class PublicChannel {
 public:
  /// Interceptor contract: given the in-flight message, rewrite it in place
  /// (or leave it as it is) and return true to deliver it, false to drop
  /// it.
  using Interceptor = std::function<bool(Message&)>;

  /// Log `msg` to the public transcript *as sent* (Eve sees the original
  /// even when an interceptor rewrites it), then apply the interceptor to
  /// `msg` in place. Returns false when the interceptor drops it; `msg` is
  /// then what would have been delivered.
  bool transmit(Message& msg);

  /// Everything ever sent, oldest first: the eavesdropper's view.
  std::vector<Message> transcript() const;

  /// Install (or clear, by passing nullptr) the active-attacker hook.
  void set_interceptor(Interceptor interceptor);

 private:
  std::vector<std::uint8_t> log_;  ///< v1 frames back to back
  Interceptor interceptor_;
};

}  // namespace vkey::protocol
