#include "protocol/channel.h"

#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

// A lossy agreement puts about 2 KiB on the air (bench_e2e gateway_lossy:
// 2075 wire bytes per key), so one reservation usually holds its transcript.
constexpr std::size_t kInitialLogBytes = 4096;

}  // namespace

bool PublicChannel::transmit(Message& msg) {
  if (log_.capacity() == 0) log_.reserve(kInitialLogBytes);
  wire::append_frame(msg, log_);
  return !interceptor_ || interceptor_(msg);
}

std::vector<Message> PublicChannel::transcript() const {
  return wire::parse_frames(log_);
}

void PublicChannel::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

}  // namespace vkey::protocol
