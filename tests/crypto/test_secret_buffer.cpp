#include "crypto/secret_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace vkey::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> v;
  for (int x : vals) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

TEST(SecureWipe, ZeroesEveryByte) {
  std::uint8_t buf[64];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<std::uint8_t>(i + 1);
  }
  secure_wipe(buf, sizeof(buf));
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    EXPECT_EQ(buf[i], 0u) << "residue at offset " << i;
  }
}

TEST(SecureWipe, LenZeroAndNullAreNoOps) {
  std::uint8_t b = 0xAB;
  secure_wipe(&b, 0);
  EXPECT_EQ(b, 0xAB);
  secure_wipe(nullptr, 0);  // must not crash
}

TEST(SecureWipe, VectorOverloadWipesAndClears) {
  auto v = bytes({1, 2, 3, 4});
  secure_wipe(v);
  EXPECT_TRUE(v.empty());
}

TEST(SecretBuffer, AdoptsVectorStorage) {
  auto src = bytes({0xDE, 0xAD, 0xBE, 0xEF});
  SecretBuffer sb(std::move(src));
  ASSERT_EQ(sb.size(), 4u);
  const auto view = sb.expose();
  EXPECT_EQ(view[0], 0xDE);
  EXPECT_EQ(view[3], 0xEF);
}

TEST(SecretBuffer, CopyOfDoesNotAliasCaller) {
  std::array<std::uint8_t, 4> digest{9, 8, 7, 6};
  auto sb = SecretBuffer::copy_of(digest);
  digest[0] = 0;  // caller wipes its own copy
  EXPECT_EQ(sb.expose()[0], 9u);
}

TEST(SecretBuffer, ZerosFactory) {
  auto sb = SecretBuffer::zeros(32);
  ASSERT_EQ(sb.size(), 32u);
  for (auto b : sb.expose()) EXPECT_EQ(b, 0u);
}

TEST(SecretBuffer, MoveWipesTheSource) {
  SecretBuffer a(bytes({1, 2, 3}));
  SecretBuffer b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): contract test
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.expose()[2], 3u);

  SecretBuffer c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): contract test
  EXPECT_EQ(c.expose()[0], 1u);
}

TEST(SecretBuffer, CopyYieldsIndependentZeroizingBuffer) {
  SecretBuffer a(bytes({5, 6, 7}));
  SecretBuffer b = a;
  ASSERT_TRUE(constant_time_equal(a, b));
  b.expose_mut()[0] = 99;
  EXPECT_EQ(a.expose()[0], 5u);
  EXPECT_FALSE(constant_time_equal(a, b));
}

TEST(SecretBuffer, CopyAssignReplacesOldSecret) {
  SecretBuffer a(bytes({1, 1, 1}));
  const SecretBuffer b(bytes({2, 2}));
  a = b;
  ASSERT_EQ(a.size(), 2u);
  EXPECT_TRUE(constant_time_equal(a, b));
}

TEST(SecretBuffer, ClearReleasesEarly) {
  SecretBuffer a(bytes({1, 2, 3}));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.expose().empty());
}

TEST(SecretBuffer, ExposeMutSupportsInPlaceDerivation) {
  auto sb = SecretBuffer::zeros(4);
  auto w = sb.expose_mut();
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(sb.expose()[3], 3u);
}

/// True when the object representation of `sb` (its inline storage and
/// bookkeeping) holds `secret` anywhere, whole or as a 4-byte run of it.
bool leaves_residue(const SecretBuffer& sb,
                    const std::vector<std::uint8_t>& secret) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(&sb);
  const std::vector<std::uint8_t> repr(raw, raw + sizeof(SecretBuffer));
  for (std::size_t at = 0; at + 4 <= secret.size(); ++at) {
    const auto run = std::span(secret).subspan(at, 4);
    if (std::search(repr.begin(), repr.end(), run.begin(), run.end()) !=
        repr.end()) {
      return true;
    }
  }
  return false;
}

/// A secret of `n` distinct, non-zero bytes.
std::vector<std::uint8_t> secret_of(std::size_t n) {
  std::vector<std::uint8_t> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<std::uint8_t>(0x80 + (i * 37) % 127);
  }
  return s;
}

TEST(SecretBuffer, NoSecretByteSurvivesAMoveOrClear) {
  // 32 bytes live inline, 82 (RFC 5869 case 2's OKM) in a heap block.
  const std::size_t sizes[] = {32, kInlineSecretBytes, 82};
  for (const std::size_t n : sizes) {
    const auto secret = secret_of(n);
    SecretBuffer moved_from = SecretBuffer::copy_of(secret);
    ASSERT_TRUE(leaves_residue(moved_from, secret) == (n <= kInlineSecretBytes))
        << n << ": the probe must see an inline secret";
    const SecretBuffer taken(std::move(moved_from));
    EXPECT_TRUE(constant_time_equal(taken, secret)) << n;
    // NOLINTNEXTLINE(bugprone-use-after-move): the wipe is the contract
    EXPECT_FALSE(leaves_residue(moved_from, secret)) << n;

    SecretBuffer assigned_from = SecretBuffer::copy_of(secret);
    SecretBuffer target = SecretBuffer::copy_of(secret_of(4));
    target = std::move(assigned_from);
    EXPECT_TRUE(constant_time_equal(target, secret)) << n;
    // NOLINTNEXTLINE(bugprone-use-after-move): the wipe is the contract
    EXPECT_FALSE(leaves_residue(assigned_from, secret)) << n;

    SecretBuffer cleared = SecretBuffer::copy_of(secret);
    cleared.clear();
    EXPECT_TRUE(cleared.empty());
    EXPECT_FALSE(leaves_residue(cleared, secret)) << n;

    SecretBuffer reassigned = SecretBuffer::copy_of(secret);
    reassigned = SecretBuffer::copy_of(secret_of(2));
    EXPECT_FALSE(leaves_residue(reassigned, secret)) << n;
  }
}

// The redaction guards are compile-time properties; assert them as such so
// a refactor that un-deletes them fails this test instead of shipping.
TEST(SecretBuffer, RedactionByConstruction) {
  static_assert(!std::is_convertible_v<SecretBuffer, std::vector<std::uint8_t>>,
                "SecretBuffer must not implicitly decay to a bare vector");
  SUCCEED();
}

TEST(ConstantTimeEqualSpan, Matrix) {
  const auto a = bytes({1, 2, 3});
  const auto b = bytes({1, 2, 3});
  const auto c = bytes({1, 2, 4});
  const auto d = bytes({1, 2});
  using Span = std::span<const std::uint8_t>;
  EXPECT_TRUE(constant_time_equal(Span(a), Span(b)));
  EXPECT_FALSE(constant_time_equal(Span(a), Span(c)));
  EXPECT_FALSE(constant_time_equal(Span(a), Span(d)));
  EXPECT_TRUE(constant_time_equal(Span(), Span()));
}

TEST(ConstantTimeEqualSpan, SecretBufferOverloads) {
  const SecretBuffer a(bytes({1, 2, 3}));
  const SecretBuffer b(bytes({1, 2, 3}));
  const SecretBuffer c(bytes({9, 9, 9}));
  const auto plain = bytes({1, 2, 3});
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_TRUE(constant_time_equal(a, std::span<const std::uint8_t>(plain)));
  EXPECT_TRUE(constant_time_equal(std::span<const std::uint8_t>(plain), a));
}

}  // namespace
}  // namespace vkey::crypto
