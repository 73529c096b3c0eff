#include "crypto/hmac.h"

namespace vkey::crypto {

std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    std::span<const std::uint8_t> key,
    std::initializer_list<std::span<const std::uint8_t>> parts) {
  constexpr std::size_t kBlockSize = 64;

  // Keys longer than the block size are hashed first. `k` and the derived
  // ipad/opad blocks are key material; all three are wiped before return.
  std::array<std::uint8_t, kBlockSize> k{};
  if (key.size() > kBlockSize) {
    Sha256 h;
    h.update(key.data(), key.size());
    auto d = h.finalize();
    std::copy(d.begin(), d.end(), k.begin());
    secure_wipe(d.data(), d.size());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlockSize> ipad{}, opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  secure_wipe(k.data(), k.size());

  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  for (const auto part : parts) inner.update(part.data(), part.size());
  auto inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer.update(inner_digest.data(), inner_digest.size());
  secure_wipe(ipad.data(), ipad.size());
  secure_wipe(opad.data(), opad.size());
  secure_wipe(inner_digest.data(), inner_digest.size());
  return outer.finalize();
}

}  // namespace vkey::crypto
