#include "protocol/channel.h"

namespace vkey::protocol {

std::optional<Message> PublicChannel::transmit(const Message& msg) {
  transcript_.push_back(msg);
  if (interceptor_) return interceptor_(msg);
  return msg;
}

void PublicChannel::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

}  // namespace vkey::protocol
