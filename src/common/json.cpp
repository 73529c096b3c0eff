#include "common/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace vkey::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw Error(std::string("json: expected ") + want + ", value is " +
              names[static_cast<int>(got)]);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

void Value::push_back(Value v) {
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
}

void Value::set(const std::string& key, Value v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw Error("json: missing key '" + key + "'");
  return *v;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Value::size() const {
  switch (type_) {
    case Type::kArray: return arr_.size();
    case Type::kObject: return obj_.size();
    case Type::kString: return str_.size();
    default: type_error("array/object/string", type_);
  }
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  std::array<char, kNumberChars> buf{};
  return std::string(buf.data(), format_number(v, buf));
}

std::size_t format_number(double v, std::span<char, kNumberChars> out) {
  VKEY_REQUIRE(std::isfinite(v), "json numbers must be finite");
  char* const first = out.data();
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    const auto [p, ec] =
        std::to_chars(first, first + out.size(), static_cast<std::int64_t>(v));
    return static_cast<std::size_t>(p - first);
  }
  const auto [p, ec] = std::to_chars(first, first + out.size(), v);
  return static_cast<std::size_t>(p - first);
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber:
      // JSON has no NaN/Infinity literal. format_number stays strict for
      // direct callers, but a document that picked up a non-finite double
      // (degenerate config upstream of a division, say) must serialize as
      // valid JSON every downstream parser accepts: normalize to null.
      if (std::isfinite(num_)) {
        out += format_number(num_);
      } else {
        out += "null";
      }
      break;
    case Type::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Type::kArray:
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    case Type::kObject:
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        out += '"';
        out += escape(obj_[i].first);
        out += "\":";
        if (indent > 0) out += ' ';
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  // Containers recurse through value(); capping the depth keeps hostile
  // input such as "[[[[..." from overflowing the stack.
  static constexpr int kMaxDepth = 256;

  /// `depth` counts the containers enclosing this value.
  Value value(int depth = 0) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      fail("nesting too deep (limit " + std::to_string(kMaxDepth) + ")");
    }
    switch (c) {
      case '{': return object(depth + 1);
      case '[': return array(depth + 1);
      case '"': return Value(string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return number();
    }
  }

  Value object(int depth) {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      obj.set(key, value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Value array(int depth) {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          const auto [p, ec] = std::from_chars(
              s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4) {
            fail("bad \\u escape");
          }
          pos_ += 4;
          // Exporter only emits \u for control characters; decode the
          // BMP subset as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    double out = 0.0;
    const auto [p, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, out);
    if (ec != std::errc() || p != s_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("bad number");
    }
    return Value(out);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value Value::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace vkey::json
