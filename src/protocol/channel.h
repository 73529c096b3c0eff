// The public (unauthenticated) channel the protocol messages traverse.
//
// Per the threat model (Sec. III), Eve has full knowledge of the protocol
// and can eavesdrop, inject and replay messages. PublicChannel therefore
// keeps a complete transcript (Eve's view) and exposes an interception hook
// through which an active attacker can drop, modify or forge traffic before
// delivery. Delivery itself belongs to the link on top (UnreliableChannel),
// which hands every frame to transmit() and delivers what survives on its
// own clock.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "protocol/message.h"

namespace vkey::protocol {

class PublicChannel {
 public:
  /// Interceptor contract: given the in-flight message, return the message
  /// to deliver instead (possibly the same), or nullopt to drop it.
  using Interceptor =
      std::function<std::optional<Message>(const Message&)>;

  /// Append `msg` to the public transcript *as sent* (Eve sees the original
  /// even when an interceptor rewrites it) and apply the interceptor.
  /// Returns the message to deliver, or nullopt when the interceptor drops
  /// it.
  std::optional<Message> transmit(const Message& msg);

  /// Everything ever sent: the eavesdropper's view.
  const std::vector<Message>& transcript() const { return transcript_; }

  /// Install (or clear, by passing nullptr) the active-attacker hook.
  void set_interceptor(Interceptor interceptor);

 private:
  std::vector<Message> transcript_;
  Interceptor interceptor_;
};

}  // namespace vkey::protocol
