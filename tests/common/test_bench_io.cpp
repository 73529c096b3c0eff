#include "common/bench_io.h"

#include <gtest/gtest.h>

namespace vkey {
namespace {

TEST(BenchIo, ParseCountAcceptsOnlyWholePositiveIntegers) {
  for (const char* bad : {"-1", "12abc", "0", "", " 7", "+3",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_count(bad).has_value()) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_count("10000"), std::optional<std::size_t>(10000));
  EXPECT_EQ(parse_count("1"), std::optional<std::size_t>(1));
}

}  // namespace
}  // namespace vkey
