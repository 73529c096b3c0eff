// Minimal JSON document model for the observability layer.
//
// The metrics exporter, the per-bench `--json` snapshots and bench_runner's
// EXPERIMENTS.md regeneration all need to write — and read back — small JSON
// documents without an external dependency. This Value covers exactly that:
// the six JSON types, insertion-ordered objects (so a dump is deterministic
// and diffs are stable), shortest-round-trip number formatting, and a strict
// recursive-descent parser that throws vkey::Error on malformed input.
//
// Not a general-purpose JSON library: no comments, no NaN/Inf (rejected on
// write — they are not JSON), no \uXXXX escapes beyond what the exporter
// emits (parse accepts them for ASCII code points).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vkey::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered key/value list (objects are small; linear lookup).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double d) : type_(Type::kNumber), num_(d) {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Value(T i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Value array() { Value v; v.type_ = Type::kArray; return v; }
  static Value object() { Value v; v.type_ = Type::kObject; return v; }

  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw vkey::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Array append (value must be an array).
  void push_back(Value v);

  /// Object field write: inserts or overwrites, preserving first-insertion
  /// order (value must be an object).
  void set(const std::string& key, Value v);

  /// Object field read; throws if absent or not an object.
  const Value& at(const std::string& key) const;
  /// Object field lookup; nullptr when absent.
  const Value* find(const std::string& key) const;

  std::size_t size() const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces per level
  /// and a trailing newline at top level; 0 emits the compact form.
  std::string dump(int indent = 2) const;

  /// Strict parse of a complete document; throws vkey::Error with the byte
  /// offset of the first error.
  static Value parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// JSON string escaping (quotes not included).
std::string escape(const std::string& s);

/// Shortest round-trip decimal formatting of a double (std::to_chars), the
/// rule that makes dumps deterministic across runs. Integral values within
/// 2^53 are printed without a decimal point. Throws on NaN/Inf; Value::dump
/// instead normalizes a non-finite number to null so a degenerate metric can
/// never produce a document that downstream parsers reject.
std::string format_number(double v);

/// Room format_number()'s text always fits in.
inline constexpr std::size_t kNumberChars = 40;

/// format_number() into `out` without building a std::string; returns the
/// number of characters written.
std::size_t format_number(double v, std::span<char, kNumberChars> out);

}  // namespace vkey::json
