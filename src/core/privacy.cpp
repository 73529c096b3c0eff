#include "core/privacy.h"

#include <algorithm>
#include <array>

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
  std::array<std::uint8_t, crypto::Sha256::kDigestSize> bytes{};
  const auto key = std::span(bytes).first(out_bits_ / 8);
  amplify_into(raw, session_salt, key);
  auto out = BitVec::from_bytes(key, out_bits_);
  crypto::secure_wipe(bytes);
  return out;
}

void PrivacyAmplifier::amplify_into(const BitVec& raw,
                                    std::uint64_t session_salt,
                                    std::span<std::uint8_t> out) const {
  VKEY_REQUIRE(!raw.empty(), "nothing to amplify");
  VKEY_REQUIRE(out.size() == out_bits_ / 8, "output is not out_bits wide");
  crypto::Sha256 h;  // destructor wipes the absorbed key material
  std::array<std::uint8_t, 64> block{};
  const std::size_t nbytes = (raw.size() + 7) / 8;
  for (std::size_t off = 0; off < nbytes; off += block.size()) {
    const auto chunk =
        std::span(block).first(std::min(block.size(), nbytes - off));
    raw.pack_bytes(off, chunk);
    h.update(chunk);
  }
  crypto::secure_wipe(block);
  std::uint8_t salt[8];
  for (int i = 0; i < 8; ++i) {
    salt[i] = static_cast<std::uint8_t>(session_salt >> (56 - 8 * i));
  }
  h.update(salt, sizeof(salt));
  auto digest = h.finalize();
  std::copy_n(digest.begin(), out.size(), out.begin());
  crypto::secure_wipe(digest.data(), digest.size());
}

}  // namespace vkey::core
