#include "protocol/channel.h"

namespace vkey::protocol {

void PublicChannel::send(const Message& msg) {
  auto delivered = transmit(msg);
  if (delivered.has_value()) queue_.push_back(std::move(*delivered));
}

std::optional<Message> PublicChannel::transmit(const Message& msg) {
  transcript_.push_back(msg);
  if (interceptor_) return interceptor_(msg);
  return msg;
}

std::optional<Message> PublicChannel::receive() {
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

void PublicChannel::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

void PublicChannel::inject(const Message& msg) { queue_.push_back(msg); }

}  // namespace vkey::protocol
