#include "crypto/hkdf.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "crypto/hmac.h"

namespace vkey::crypto {

SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                          std::span<const std::uint8_t> ikm) {
  static constexpr std::array<std::uint8_t, Sha256::kDigestSize> kZeroSalt{};
  auto prk = hmac_sha256(
      salt.empty() ? std::span<const std::uint8_t>(kZeroSalt) : salt, ikm);
  auto out = SecretBuffer::copy_of(prk);
  secure_wipe(prk.data(), prk.size());
  return out;
}

SecretBuffer hkdf_expand(const SecretBuffer& prk,
                         std::span<const std::uint8_t> info,
                         std::size_t length) {
  VKEY_REQUIRE(prk.size() >= Sha256::kDigestSize,
               "PRK must be at least one hash block");
  VKEY_REQUIRE(length >= 1 && length <= 255 * Sha256::kDigestSize,
               "HKDF output length out of range");
  // T(i) = HMAC(PRK, T(i-1) || info || i), hashed part by part, so the only
  // buffers are the output itself and T on the stack (wiped on the way out).
  SecretBuffer okm = SecretBuffer::zeros(length);
  const std::span<std::uint8_t> out = okm.expose_mut();
  std::array<std::uint8_t, Sha256::kDigestSize> t{};
  std::size_t t_len = 0;  // T(0) is empty
  std::uint8_t counter = 1;
  for (std::size_t done = 0; done < length; ++counter) {
    auto digest = hmac_sha256(prk.expose(), {std::span(t.data(), t_len), info,
                                             std::span(&counter, 1)});
    t = digest;
    t_len = t.size();
    secure_wipe(digest.data(), digest.size());
    const std::size_t take = std::min(length - done, t.size());
    std::copy_n(t.begin(), take,
                out.begin() + static_cast<std::ptrdiff_t>(done));
    done += take;
  }
  secure_wipe(t.data(), t.size());
  return okm;
}

}  // namespace vkey::crypto
