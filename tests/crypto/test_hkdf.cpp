#include "crypto/hkdf.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/sha256.h"

namespace vkey::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Test-only: render a derived secret for comparison against RFC vectors.
// Library code never does this (vkey_secretflow.py flags it); tests are
// the sanctioned place to look at known test-vector keys.
std::string hex_of(const SecretBuffer& s) {
  const auto view = s.expose();
  return to_hex(view.data(), view.size());
}

// RFC 5869 Appendix A, test case 1 (SHA-256).
TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto salt = from_hex("000102030405060708090a0b0c");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_of(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const auto okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_of(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 Appendix A, test case 2 (longer inputs/outputs).
TEST(Hkdf, Rfc5869Case2) {
  std::vector<std::uint8_t> ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_of(prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244");
  const auto okm = hkdf_expand(prk, info, 82);
  EXPECT_EQ(hex_of(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// RFC 5869 Appendix A, test case 3 (empty salt and info).
TEST(Hkdf, Rfc5869Case3) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto prk = hkdf_extract({}, ikm);
  EXPECT_EQ(hex_of(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  const auto okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(hex_of(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, LengthBoundsChecked) {
  const auto prk = SecretBuffer(std::vector<std::uint8_t>(32, 1));
  EXPECT_THROW(hkdf_expand(prk, {}, 0), vkey::Error);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), vkey::Error);
  EXPECT_THROW(
      hkdf_expand(SecretBuffer(std::vector<std::uint8_t>(8, 1)), {}, 16),
      vkey::Error);
}

}  // namespace
}  // namespace vkey::crypto
