#include "core/privacy.h"

#include "common/error.h"
#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"

namespace vkey::core {

PrivacyAmplifier::PrivacyAmplifier(std::size_t out_bits)
    : out_bits_(out_bits) {
  VKEY_REQUIRE(out_bits >= 8 && out_bits <= 256 && out_bits % 8 == 0,
               "out_bits must be a multiple of 8 in [8, 256]");
}

BitVec PrivacyAmplifier::amplify(const BitVec& raw,
                                 std::uint64_t session_salt) const {
  VKEY_REQUIRE(!raw.empty(), "nothing to amplify");
  crypto::Sha256 h;  // destructor wipes the absorbed key material
  auto bytes = raw.to_bytes();
  h.update(bytes);
  crypto::secure_wipe(bytes);
  std::uint8_t salt[8];
  for (int i = 0; i < 8; ++i) {
    salt[i] = static_cast<std::uint8_t>(session_salt >> (56 - 8 * i));
  }
  h.update(salt, sizeof(salt));
  auto digest = h.finalize();
  auto out = BitVec::from_bytes(
      std::vector<std::uint8_t>(digest.begin(), digest.end()), out_bits_);
  crypto::secure_wipe(digest.data(), digest.size());
  return out;
}

}  // namespace vkey::core
