// Privacy amplification (paper Sec. IV-C, final stage).
//
// Reconciliation publishes y_Bob, leaking partial information; hashing the
// agreed bit string compresses that leakage away and whitens residual bias.
// The paper applies "SHA-128"; we realize it as SHA-256 truncated to the
// requested output width (128 bits by default), optionally salted with the
// session id so different sessions with identical raw material still derive
// independent keys. What amplification discounts also sets the net key
// rate every scheme reports (score_key_blocks).
#pragma once

#include <cstddef>
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

/// A scheme's score over its reconciled key blocks (paper Sec. V).
struct KeyScore {
  double mean_kar = 0.0;        ///< mean post-reconciliation agreement
  double std_kar = 0.0;         ///< its sample std; 0 below two blocks
  double exact_rate = 0.0;      ///< fraction of blocks agreeing exactly
  double kgr_bits_per_s = 0.0;  ///< net secret bits per second
};

/// Scores blocks of `block_bits` bits, one agreement each in `kar`, of
/// which `exact` agree exactly, measured over `duration_s` of channel use.
/// KGR is the LoRa key-generation literature's net rate: matched bits per
/// second after amplification discounts the `leaked_bits` reconciliation
/// published over all blocks. Vehicle-Key and every baseline score
/// through it. All zero without blocks; KGR is 0 for a zero duration.
KeyScore score_key_blocks(std::span<const double> kar, std::size_t exact,
                          std::size_t leaked_bits, std::size_t block_bits,
                          double duration_s);

}  // namespace vkey::core
