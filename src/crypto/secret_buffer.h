// Zeroizing container for secret key material, and the primitives the
// secret-flow analyzer (tools/vkey_secretflow.py) builds its model on.
//
// Every secret in the key lifecycle — the privacy-amplified session secret,
// HKDF PRKs, directional enc/mac keys, HMAC keys, confirmation keys — lives
// in a SecretBuffer instead of a bare std::vector<std::uint8_t>. The type
// enforces three invariants the analyzer then only has to *check* at its
// boundaries instead of proving everywhere:
//
//   1. Zeroize-on-destruct. The bytes live inline (up to
//      kInlineSecretBytes, which every key-schedule secret fits) or in one
//      heap block beyond that, and wherever they sit they are wiped through
//      secure_wipe() (compiler-barrier protected, cannot be optimized out)
//      before the storage is released or abandoned — on destruction,
//      clear(), reassignment, and when the buffer is moved from.
//   2. Redaction by construction. Streaming (`operator<<`) and JSON
//      conversion are deleted, so a SecretBuffer cannot reach the trace /
//      metrics / snapshot sinks without going through expose() — which is
//      the single taint escape vkey_secretflow.py recognizes and audits.
//   3. Constant-time comparison only. operator== is deleted; callers use
//      constant_time_equal(), which never early-exits on content.
//
// expose() hands back a read-only span over the live bytes. It exists
// because real consumers (AES key expansion, HMAC compression) need the
// raw bytes; the contract is that an expose() result is consumed
// immediately and never stored, printed, or serialized — exactly what the
// analyzer's sink rules flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/small_buffer.h"

namespace vkey::json {
class Value;
}  // namespace vkey::json

namespace vkey::crypto {

/// Overwrite `len` bytes at `p` with zeros in a way the optimizer cannot
/// elide even when the storage is provably dead afterwards (the classic
/// dead-store-elimination hole memset falls into). No-op on len == 0.
void secure_wipe(void* p, std::size_t len) noexcept;

/// Wipe-and-clear a byte vector in place (wipes the live bytes, then
/// clears; capacity may survive but holds only zeros).
void secure_wipe(std::vector<std::uint8_t>& v) noexcept;

/// Wipe fixed storage (a stack block or array member that held a key).
inline void secure_wipe(std::span<std::uint8_t> bytes) noexcept {
  secure_wipe(bytes.data(), bytes.size());
}

/// Bytes a SecretBuffer keeps inline: every PRK, HKDF output and ratchet
/// secret of the key schedule (32 bytes at most) fits, so none allocates.
inline constexpr std::size_t kInlineSecretBytes = 64;

class SecretBuffer {
 public:
  SecretBuffer() = default;

  /// Take the secret bytes out of `bytes`: they are copied in, and the
  /// vector is wiped and cleared, so no unwiped duplicate is left behind.
  explicit SecretBuffer(std::vector<std::uint8_t>&& bytes)
      : bytes_(std::span<const std::uint8_t>(bytes)) {
    secure_wipe(bytes);
  }

  /// Copy secret bytes out of storage this buffer does not own (e.g. a
  /// std::array digest the caller will wipe itself).
  static SecretBuffer copy_of(std::span<const std::uint8_t> bytes) {
    SecretBuffer out;
    out.bytes_.assign(bytes);
    return out;
  }

  /// An all-zero secret of `len` bytes, to be filled in place through
  /// expose_mut() (HKDF's output, a packed key).
  static SecretBuffer zeros(std::size_t len) {
    SecretBuffer out;
    out.bytes_.assign(len, 0);
    return out;
  }

  ~SecretBuffer() { wipe(); }

  /// Copies are permitted — both sides stay zeroizing buffers (the epoch
  /// grace window genuinely needs two live key generations). Copying *out*
  /// to an unprotected container requires expose() and is what the
  /// analyzer audits.
  SecretBuffer(const SecretBuffer&) = default;
  SecretBuffer& operator=(const SecretBuffer& other) {
    if (this != &other) {
      wipe();
      bytes_ = other.bytes_;
    }
    return *this;
  }

  /// Moves wipe the source: after `b = std::move(a)`, `a` holds no secret
  /// residue (its heap block was adopted by `b`, or its inline bytes were
  /// copied and then zeroized).
  SecretBuffer(SecretBuffer&& other) noexcept
      : bytes_(std::move(other.bytes_)) {
    other.wipe();
  }
  SecretBuffer& operator=(SecretBuffer&& other) noexcept {
    if (this != &other) {
      wipe();
      bytes_ = std::move(other.bytes_);
      other.wipe();
    }
    return *this;
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  bool empty() const noexcept { return bytes_.empty(); }

  /// The single sanctioned taint escape: a read-only view of the live
  /// bytes, valid until the buffer is mutated or destroyed. Consume
  /// immediately; never store, print, or serialize the result (enforced by
  /// vkey_secretflow.py's sink rules).
  std::span<const std::uint8_t> expose() const noexcept { return bytes_; }

  /// Writable view for in-place derivation (HKDF output assembly). Same
  /// contract as expose().
  std::span<std::uint8_t> expose_mut() noexcept { return bytes_; }

  /// Wipe and release the secret now instead of at destruction.
  void clear() noexcept { wipe(); }

  /// Content equality is a timing side channel; use constant_time_equal().
  bool operator==(const SecretBuffer&) const = delete;

 private:
  /// Zero the whole storage, not just the live bytes, then empty the
  /// buffer (which frees a heap block). A SecretBuffer never grows in
  /// place, so its inline bytes hold a secret only while it is inline.
  void wipe() noexcept {
    secure_wipe(bytes_.data(), bytes_.capacity());
    bytes_.clear();
  }

  SmallBuffer<std::uint8_t, kInlineSecretBytes> bytes_;
};

/// Constant-time equality over raw byte views (length leak only). This is
/// the primitive every MAC/confirm verification routes through.
bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) noexcept;

/// Constant-time comparison against a secret without exposing it at the
/// call site.
inline bool constant_time_equal(const SecretBuffer& a,
                                std::span<const std::uint8_t> b) noexcept {
  return constant_time_equal(a.expose(), b);
}
inline bool constant_time_equal(std::span<const std::uint8_t> a,
                                const SecretBuffer& b) noexcept {
  return constant_time_equal(a, b.expose());
}
inline bool constant_time_equal(const SecretBuffer& a,
                                const SecretBuffer& b) noexcept {
  return constant_time_equal(a.expose(), b.expose());
}

/// Redaction by construction: secrets never stream and never serialize.
/// These deletions turn an accidental `log << key` or snapshot field into
/// a compile error instead of a leaked trace file.
std::ostream& operator<<(std::ostream&, const SecretBuffer&) = delete;
// vkey-secret: allow(secret-to-json) -- deleted overload: this declaration
// is the guard that turns the leak into a compile error; nothing flows.
json::Value to_json(const SecretBuffer&) = delete;

}  // namespace vkey::crypto
