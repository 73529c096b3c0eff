// The public (unauthenticated) channel the protocol messages traverse.
//
// Per the threat model (Sec. III), Eve has full knowledge of the protocol
// and can eavesdrop, inject and replay messages. PublicChannel therefore
// keeps a complete transcript (Eve's view) and exposes an interception hook
// through which an active attacker can drop, modify or forge traffic before
// delivery.
#pragma once

#include <deque>
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

  /// Transmit a message: transmit() it, then queue what survives for
  /// receive().
  void send(const Message& msg);

  /// The queue-free half of send(): append `msg` to the public transcript
  /// *as sent* (Eve sees the original even when an interceptor rewrites
  /// it) and apply the interceptor. Returns the message to deliver, or
  /// nullopt when the interceptor drops it. A link that delivers on its own
  /// schedule (UnreliableChannel) uses this and never touches the queue.
  std::optional<Message> transmit(const Message& msg);

  /// Deliver the next queued message (after interception), if any.
  std::optional<Message> receive();

  /// Number of messages waiting for delivery.
  std::size_t pending() const { return queue_.size(); }

  /// Everything ever sent: the eavesdropper's view.
  const std::vector<Message>& transcript() const { return transcript_; }

  /// Install (or clear, by passing nullptr) the active-attacker hook.
  void set_interceptor(Interceptor interceptor);

  /// Inject a forged message directly into the delivery queue (replay /
  /// spoofing attacks).
  void inject(const Message& msg);

 private:
  std::deque<Message> queue_;
  std::vector<Message> transcript_;
  Interceptor interceptor_;
};

}  // namespace vkey::protocol
