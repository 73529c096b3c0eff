// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// The reconciliation exchange appends MAC(K'_Bob, y_Bob) so Alice can detect
// man-in-the-middle modification (paper Sec. IV-C). Verification compares
// tags with constant_time_equal (secret_buffer.h).
//
// Keys are secrets: the entry points take the key as a SecretBuffer or a
// borrowed span, and the derived ipad/opad blocks are zeroized before
// return (secure_wipe).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"

namespace vkey::crypto {

/// Compute HMAC-SHA256 over the concatenation of `parts` with `key`
/// (borrowed views; the internal key-derived scratch is wiped before
/// returning). The parts are hashed in order, never copied together, so a
/// caller with a structured message (HKDF's T(i-1) || info || counter)
/// needs no buffer to assemble it in.
std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    std::span<const std::uint8_t> key,
    std::initializer_list<std::span<const std::uint8_t>> parts);

/// HMAC-SHA256 over one contiguous `message`.
inline std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    std::span<const std::uint8_t> key, std::span<const std::uint8_t> message) {
  return hmac_sha256(key, {message});
}

/// HMAC under a managed secret key without exposing it at the call site.
inline std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(
    const SecretBuffer& key, std::span<const std::uint8_t> message) {
  return hmac_sha256(key.expose(), message);
}

}  // namespace vkey::crypto
