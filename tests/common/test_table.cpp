#include "common/table.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vkey {
namespace {

TEST(Table, RequiresHeaders) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "v"});
  t.add_row({"x", "1.00"});
  t.add_row({"longer", "2.50"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | v    |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2.50 |"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.0, 0), "3");
}

TEST(Table, PctFormatsFraction) {
  EXPECT_EQ(Table::pct(0.9887), "98.87%");
  EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

}  // namespace
}  // namespace vkey
