// SmallBuffer: elements stay inline up to N, move to one heap block
// beyond, and come back inline when a whole-content replacement fits
// again; copies, moves and self-assignment keep the content in every
// state, for bytes and for wider elements alike.
#include "common/small_buffer.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace vkey {
namespace {

using Bytes = SmallBuffer<std::uint8_t, 8>;

/// 0, 1, ..., n-1.
std::vector<std::uint8_t> iota(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), std::uint8_t{0});
  return v;
}

bool holds(const Bytes& b, const std::vector<std::uint8_t>& want) {
  return std::vector<std::uint8_t>(b.begin(), b.end()) == want;
}

TEST(SmallBuffer, GrowsFromInlineToHeapAndKeepsTheBytes) {
  Bytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.is_inline());
  EXPECT_EQ(b.capacity(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) b.push_back(i);
  EXPECT_TRUE(b.is_inline());
  b.push_back(8);  // the ninth byte takes a heap block
  EXPECT_FALSE(b.is_inline());
  EXPECT_GE(b.capacity(), 9u);
  EXPECT_TRUE(holds(b, iota(9)));

  Bytes r{1, 2};
  r.resize(20, 7);
  EXPECT_FALSE(r.is_inline());
  ASSERT_EQ(r.size(), 20u);
  EXPECT_EQ(r[1], 2u);
  EXPECT_EQ(r.back(), 7u);
  r.resize(3);  // shrinking in place keeps the block
  EXPECT_FALSE(r.is_inline());
  EXPECT_TRUE(holds(r, {1, 2, 7}));

  Bytes a = {1, 2, 3};
  a.append(std::span<const std::uint8_t>(iota(6)));
  EXPECT_FALSE(a.is_inline());
  EXPECT_TRUE(holds(a, {1, 2, 3, 0, 1, 2, 3, 4, 5}));

  Bytes v;
  v.reserve(9);
  EXPECT_FALSE(v.is_inline());
  EXPECT_TRUE(v.empty());
}

TEST(SmallBuffer, WholeContentReplacementComesBackInline) {
  const auto big = iota(12);
  const std::array<std::uint8_t, 3> small{9, 8, 7};
  Bytes b(big);
  ASSERT_FALSE(b.is_inline());
  b.assign(small);
  EXPECT_TRUE(b.is_inline());
  EXPECT_TRUE(holds(b, {9, 8, 7}));

  b = std::span<const std::uint8_t>(big);
  ASSERT_FALSE(b.is_inline());
  b = {4, 5};
  EXPECT_TRUE(b.is_inline());
  EXPECT_TRUE(holds(b, {4, 5}));

  b.assign(10, 0xee);
  ASSERT_FALSE(b.is_inline());
  EXPECT_TRUE(holds(b, std::vector<std::uint8_t>(10, 0xee)));
  b.assign(2, 0x11);
  EXPECT_TRUE(b.is_inline());
  EXPECT_TRUE(holds(b, {0x11, 0x11}));

  b.assign(10, 0);
  b.clear();
  EXPECT_TRUE(b.is_inline());
  EXPECT_TRUE(b.empty());
}

TEST(SmallBuffer, AssignAndAppendMayReadTheirOwnBytes) {
  Bytes heap(iota(12));
  heap.assign(std::span<const std::uint8_t>(heap).subspan(2, 4));
  EXPECT_TRUE(heap.is_inline());
  EXPECT_TRUE(holds(heap, {2, 3, 4, 5}));

  Bytes twice = {1, 2, 3, 4, 5};
  twice.append(twice);  // reallocates while reading the old block
  EXPECT_TRUE(holds(twice, {1, 2, 3, 4, 5, 1, 2, 3, 4, 5}));
}

TEST(SmallBuffer, CopyMoveAndSelfAssignmentInEveryState) {
  for (const std::size_t n : {0u, 5u, 8u, 30u}) {
    const auto want = iota(n);
    const Bytes source(want);
    EXPECT_EQ(source.is_inline(), n <= 8) << n;

    Bytes copy(source);
    EXPECT_TRUE(holds(copy, want)) << n;
    EXPECT_TRUE(copy == source) << n;

    // Copy assignment over an inline and over a heap target.
    for (Bytes target : {Bytes{1}, Bytes(iota(20))}) {
      target = source;
      EXPECT_TRUE(holds(target, want)) << n;
      EXPECT_EQ(target.is_inline(), n <= 8) << n;
    }

    // Moves take the bytes and leave the source empty and inline.
    Bytes from(source);
    Bytes moved(std::move(from));
    EXPECT_TRUE(holds(moved, want)) << n;
    EXPECT_TRUE(from.empty()) << n;  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(from.is_inline()) << n;
    for (Bytes target : {Bytes{1}, Bytes(iota(20))}) {
      target = std::move(moved);
      EXPECT_TRUE(holds(target, want)) << n;
      EXPECT_TRUE(moved.empty()) << n;  // NOLINT(bugprone-use-after-move)
      moved = target;
    }

    Bytes self(source);
    const Bytes& alias = self;
    self = alias;
    EXPECT_TRUE(holds(self, want)) << n;
    self = std::move(self);  // NOLINT: the self-move contract under test
    EXPECT_TRUE(holds(self, want)) << n;
  }
}

TEST(SmallBuffer, WiderElementsMoveWholeValues) {
  // Elements wider than a byte: every copy moves size() * sizeof(T) bytes.
  using Doubles = SmallBuffer<double, 4>;
  Doubles d(3, 0.5);
  d.push_back(-1.25);
  EXPECT_TRUE(d.is_inline());
  const std::array<double, 3> tail = {1e300, 2.0, 3.0};
  d.append(tail);  // past the inline room: all seven values move
  EXPECT_FALSE(d.is_inline());
  const std::vector<double> want = {0.5, 0.5, 0.5, -1.25, 1e300, 2.0, 3.0};
  EXPECT_TRUE(d == want);
  const Doubles copy = d;
  EXPECT_TRUE(copy == want);
  Doubles moved = std::move(d);
  EXPECT_TRUE(moved == want);
  moved.assign(std::span(tail));  // fits again: back inline
  EXPECT_TRUE(moved.is_inline());
  EXPECT_TRUE(moved == tail);
}

TEST(SmallBuffer, InitializerListsAndEquality) {
  const Bytes a{1, 2, 3};
  Bytes b = {1, 2, 3};
  EXPECT_TRUE(a == b);
  b = {1, 2};
  EXPECT_FALSE(a == b);
  b = {1, 2, 4};
  EXPECT_FALSE(a == b);
  const Bytes empty = {};
  EXPECT_TRUE(empty.empty());
  // Any contiguous range of the element type compares, a vector included.
  EXPECT_TRUE(a == std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_FALSE(a == std::vector<std::uint8_t>({1, 2}));

  SmallBuffer<char, 4> text;
  text.append(std::span(std::string_view("longer than four")));
  EXPECT_FALSE(text.is_inline());
  EXPECT_EQ(text.str(), "longer than four");
}

}  // namespace
}  // namespace vkey
