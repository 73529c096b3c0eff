#include "core/privacy.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "common/stats.h"
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

KeyScore score_key_blocks(std::span<const double> kar, std::size_t exact,
                          std::size_t leaked_bits, std::size_t block_bits,
                          double duration_s) {
  KeyScore score;
  const std::size_t blocks = kar.size();
  if (blocks == 0) return score;
  score.mean_kar = stats::mean(kar);
  score.std_kar = blocks >= 2 ? stats::sample_stddev(kar) : 0.0;
  score.exact_rate =
      static_cast<double>(exact) / static_cast<double>(blocks);
  const double leaked_per_block =
      static_cast<double>(leaked_bits) / static_cast<double>(blocks);
  const double net_bits_per_block =
      std::max(0.0, static_cast<double>(block_bits) - leaked_per_block);
  // Guard the division: a zero-duration trace (degenerate PHY/interval
  // configuration) must not push inf/nan into the JSON exporters.
  score.kgr_bits_per_s = duration_s > 0.0
                             ? static_cast<double>(blocks) *
                                   net_bits_per_block * score.mean_kar /
                                   duration_s
                             : 0.0;
  return score;
}

}  // namespace vkey::core
