// AES-128 (FIPS 197) encryption core with CTR mode, implemented from scratch.
//
// The final Vehicle-Key session key drives AES-128 for payload protection
// (paper Sec. IV-C: "the final keys can be used by symmetric key encryption
// algorithms such as AES-128"). CTR mode is used because IoV payloads are
// short and variable-length; it runs the block cipher forward in both
// directions, so only encryption is implemented. This is a straightforward
// table-free implementation (computed S-box, xtime multiplication); fine for
// simulation use, not hardened against cache side channels.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/secret_buffer.h"

namespace vkey::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kBlockSize = 16;

  /// Expand the 128-bit key.
  explicit Aes128(const std::array<std::uint8_t, kKeySize>& key);

  /// Expand a borrowed 16-byte key view (must be exactly kKeySize bytes).
  explicit Aes128(std::span<const std::uint8_t> key);

  /// Expand directly from a managed secret without exposing it at the
  /// call site.
  explicit Aes128(const SecretBuffer& key);

  /// The expanded round keys are equivalent to the key itself; they are
  /// zeroized when the cipher goes out of scope.
  ~Aes128();

  Aes128(const Aes128&) = default;
  Aes128& operator=(const Aes128&) = default;
  Aes128(Aes128&&) = default;
  Aes128& operator=(Aes128&&) = default;

  /// Encrypt one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// CTR-mode keystream XOR: encryption and decryption are the same
  /// operation. `nonce` forms the upper 8 bytes of the counter block; the
  /// lower 8 bytes count blocks starting from 0. Writes `data` XOR the
  /// keystream into `out`, which must be as long as `data` (it may be the
  /// same storage).
  void ctr_crypt(std::span<const std::uint8_t> data, std::uint64_t nonce,
                 std::span<std::uint8_t> out) const;

  /// ctr_crypt() into a fresh vector.
  std::vector<std::uint8_t> ctr_crypt(const std::vector<std::uint8_t>& data,
                                      std::uint64_t nonce) const {
    std::vector<std::uint8_t> out(data.size());
    ctr_crypt(data, nonce, out);
    return out;
  }

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

}  // namespace vkey::crypto
