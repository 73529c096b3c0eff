#include "protocol/channel.h"

#include <utility>

namespace vkey::protocol {

bool PublicChannel::transmit(Message& msg) {
  return !interceptor_ || interceptor_(msg);
}

void PublicChannel::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

}  // namespace vkey::protocol
