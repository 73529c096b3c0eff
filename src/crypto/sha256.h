// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the privacy-amplification stage (the paper's "SHA-128" is realized
// as SHA-256 truncated to 128 bits, the common reading of that name) and as
// the compression core of HMAC for reconciliation message authentication.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vkey::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;

  Sha256();

  /// Hashers routinely absorb key material (HMAC ipad/opad blocks, the
  /// amplified secret in privacy amplification); the destructor zeroizes
  /// the chaining state and the partial-block buffer so a finalized or
  /// abandoned hasher leaves no key-derived residue on the stack/heap.
  ~Sha256();

  Sha256(const Sha256&) = default;
  Sha256& operator=(const Sha256&) = default;
  Sha256(Sha256&&) = default;
  Sha256& operator=(Sha256&&) = default;

  /// Absorb `len` bytes.
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::span<const std::uint8_t> data) {
    update(data.data(), data.size());
  }

  /// Finalize and return the 32-byte digest. The hasher must not be used
  /// after finalization (call reset() to reuse).
  std::array<std::uint8_t, kDigestSize> finalize();

  /// Reset to the initial state.
  void reset();

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestSize> digest(
      const std::vector<std::uint8_t>& data);
  static std::array<std::uint8_t, kDigestSize> digest(const std::string& s);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// Hex encoding of arbitrary bytes (lowercase).
std::string to_hex(const std::uint8_t* data, std::size_t len);

}  // namespace vkey::crypto
