#include "common/table.h"

#include <cstdio>
#include <sstream>

#include "common/error.h"

namespace vkey {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  VKEY_REQUIRE(!headers_.empty(), "Table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  VKEY_REQUIRE(row.size() == headers_.size(), "Table row width mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "| " << row[c]
          << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << "|" << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

json::Value Table::to_json() const {
  json::Value t = json::Value::object();
  json::Value headers = json::Value::array();
  for (const auto& h : headers_) headers.push_back(json::Value(h));
  t.set("headers", std::move(headers));
  json::Value rows = json::Value::array();
  for (const auto& row : rows_) {
    json::Value r = json::Value::array();
    for (const auto& cell : row) r.push_back(json::Value(cell));
    rows.push_back(std::move(r));
  }
  t.set("rows", std::move(rows));
  return t;
}

std::string Table::markdown_from_json(const json::Value& table) {
  const auto& headers = table.at("headers").as_array();
  const auto& rows = table.at("rows").as_array();

  // Align columns: markdown doesn't need it, but padded source diffs and
  // raw views read far better.
  std::vector<std::size_t> widths(headers.size(), 3);
  auto escape_cell = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '|') out += "\\|";
      else out += c;
    }
    return out;
  };
  std::vector<std::vector<std::string>> cells;
  cells.push_back({});
  for (const auto& h : headers) cells.back().push_back(escape_cell(h.as_string()));
  for (const auto& row : rows) {
    cells.push_back({});
    for (const auto& c : row.as_array()) {
      cells.back().push_back(escape_cell(c.as_string()));
    }
    VKEY_REQUIRE(cells.back().size() == headers.size(),
                 "table row width mismatch in JSON");
  }
  for (const auto& row : cells) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << " " << row[c]
          << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << "\n";
  };
  emit_row(cells.front());
  out << "|";
  for (std::size_t c = 0; c < headers.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (std::size_t r = 1; r < cells.size(); ++r) emit_row(cells[r]);
  return out.str();
}

void Table::print(const std::string& caption) const {
  if (!caption.empty()) std::printf("%s\n", caption.c_str());
  std::printf("%s", to_string().c_str());
}

}  // namespace vkey
