// Console table rendering for the benchmark harness.
//
// Every bench binary reproduces a paper table or figure by printing rows; this
// helper keeps the output format consistent (aligned columns on the console,
// the same cells as JSON in a snapshot, and markdown from that JSON for
// EXPERIMENTS.md).
#pragma once

#include <string>
#include <vector>

#include "common/json.h"

namespace vkey {

class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append a row (must match the header count).
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision.
  static std::string fmt(double v, int precision = 2);
  /// Percentage with '%' suffix (v in [0,1] -> "98.87%").
  static std::string pct(double v, int precision = 2);

  /// Render with aligned columns and a separator under the header.
  std::string to_string() const;

  /// {"headers": [...], "rows": [[...], ...]} — cells stay the formatted
  /// strings the console shows, so a table regenerated from the JSON is
  /// byte-identical to the printed one.
  json::Value to_json() const;

  /// GitHub-flavored markdown rendering (pipe table) of a to_json()-shaped
  /// value, used by bench_runner to splice measured tables into
  /// EXPERIMENTS.md.
  static std::string markdown_from_json(const json::Value& table);

  /// Print to stdout with an optional caption line above.
  void print(const std::string& caption = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vkey
