// HKDF (RFC 5869) — HMAC-based key derivation.
//
// The privacy-amplified session key is a single 128-bit secret; protecting
// traffic needs *independent* keys for encryption and authentication. The
// key schedule (protocol/key_schedule.h) extracts one PRK per epoch and
// expands it into cryptographically separated subkeys with
// domain-separating info labels.
//
// Everything HKDF touches or returns is key material, so the API speaks
// SecretBuffer: PRKs and output key material come back zeroizing, and
// input secrets are taken as SecretBuffer (or a borrowed span for callers
// that hold the bytes in other wiped storage). Salt and info are public
// protocol constants and stay plain spans. A PRK, and an output of up to
// kInlineSecretBytes (every key the schedule derives), lives inside its
// SecretBuffer, so extract and expand allocate nothing; a longer output
// (RFC 5869's 82-byte case) takes one heap block.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/secret_buffer.h"

namespace vkey::crypto {

/// HKDF-Extract: PRK = HMAC(salt, ikm). An empty salt is replaced by a
/// zero-filled hash-length block per the RFC.
SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                          std::span<const std::uint8_t> ikm);
inline SecretBuffer hkdf_extract(std::span<const std::uint8_t> salt,
                                 const SecretBuffer& ikm) {
  return hkdf_extract(salt, ikm.expose());
}

/// HKDF-Expand: derive `length` bytes (<= 255 * 32) from a pseudorandom key
/// with the given context/label.
SecretBuffer hkdf_expand(const SecretBuffer& prk,
                         std::span<const std::uint8_t> info,
                         std::size_t length);

}  // namespace vkey::crypto
