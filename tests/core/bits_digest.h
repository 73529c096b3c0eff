// Test helper shared by the trained-model golden tests: a digest of a
// vector of doubles that changes with any bit of any value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace vkey::core {

/// SHA-256 (hex) of the bytes of `v`'s doubles, so two digests agree only
/// when every value does bit for bit.
inline std::string bits_digest(const std::vector<double>& v) {
  crypto::Sha256 h;
  h.update(reinterpret_cast<const std::uint8_t*>(v.data()),
           v.size() * sizeof(double));
  const auto d = h.finalize();
  return crypto::to_hex(d.data(), d.size());
}

}  // namespace vkey::core
