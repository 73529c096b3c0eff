// The public (unauthenticated) channel the protocol messages traverse.
//
// Per the threat model (Sec. III), Eve has full knowledge of the protocol
// and can eavesdrop, inject and replay messages. PublicChannel gives her one
// hook, the interceptor, which sees every frame as sent: a passive Eve
// records the traffic through it (protocol/attacks.h, record_transcript)
// and an active one drops, modifies or forges frames before delivery. With
// no interceptor installed nothing is kept. Delivery itself belongs to the
// link on top (UnreliableChannel), which hands every frame to transmit()
// and delivers what survives on its own clock.
#pragma once

#include <functional>

#include "protocol/message.h"

namespace vkey::protocol {

class PublicChannel {
 public:
  /// Interceptor contract: given the in-flight message, rewrite it in place
  /// (or leave it as it is) and return true to deliver it, false to drop
  /// it.
  using Interceptor = std::function<bool(Message&)>;

  /// Hand `msg`, as sent, to the interceptor, which may rewrite it in
  /// place. Returns false when the interceptor drops it; `msg` is then what
  /// would have been delivered.
  bool transmit(Message& msg);

  /// Install (or clear, by passing nullptr) the attacker's hook.
  void set_interceptor(Interceptor interceptor);

 private:
  Interceptor interceptor_;
};

}  // namespace vkey::protocol
