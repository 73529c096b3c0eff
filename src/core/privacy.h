// Privacy amplification (paper Sec. IV-C, final stage).
//
// Reconciliation publishes y_Bob, leaking partial information; hashing the
// agreed bit string compresses that leakage away and whitens residual bias.
// The paper applies "SHA-128"; we realize it as SHA-256 truncated to the
// requested output width (128 bits by default), optionally salted with the
// session id so different sessions with identical raw material still derive
// independent keys.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.h"

namespace vkey::core {

class PrivacyAmplifier {
 public:
  /// `out_bits` must be in [8, 256] and a multiple of 8.
  explicit PrivacyAmplifier(std::size_t out_bits = 128);

  /// Hash the agreed raw bits (with an optional session salt) down to the
  /// configured output width.
  BitVec amplify(const BitVec& raw, std::uint64_t session_salt = 0) const;

  /// amplify() as packed bytes (MSB-first, out_bits / 8 of them) written
  /// into `out` without allocating: the raw bits are packed into a wiped
  /// stack block as they are hashed.
  void amplify_into(const BitVec& raw, std::uint64_t session_salt,
                    std::span<std::uint8_t> out) const;

 private:
  std::size_t out_bits_ = 0;
};

}  // namespace vkey::core
