// JSON document model: formatting, escaping, parse/dump round-trips, and
// the table exporter path bench_runner relies on.
#include <array>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/table.h"

namespace vkey::json {
namespace {

TEST(FormatNumber, IntegralValuesPrintWithoutDecimalPoint) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-7.0), "-7");
  EXPECT_EQ(format_number(1e15), "1000000000000000");
}

TEST(FormatNumber, FractionsUseShortestRoundTrip) {
  EXPECT_EQ(format_number(3.5), "3.5");
  EXPECT_EQ(format_number(0.1), "0.1");
  const std::string s = format_number(1.0 / 3.0);
  EXPECT_DOUBLE_EQ(std::stod(s), 1.0 / 3.0);
}

TEST(FormatNumber, RejectsNonFiniteValues) {
  EXPECT_THROW(format_number(std::numeric_limits<double>::infinity()),
               vkey::Error);
  EXPECT_THROW(format_number(std::numeric_limits<double>::quiet_NaN()),
               vkey::Error);
}

TEST(Escape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Dump, CompactAndPrettyFormsAreDeterministic) {
  Value obj = Value::object();
  obj.set("b", Value(1));
  obj.set("a", Value("x"));
  Value arr = Value::array();
  arr.push_back(Value(true));
  arr.push_back(Value(nullptr));
  obj.set("list", std::move(arr));
  // Insertion order is preserved — not sorted — so diffs are stable.
  EXPECT_EQ(obj.dump(0), "{\"b\":1,\"a\":\"x\",\"list\":[true,null]}");
  EXPECT_EQ(obj.dump(2),
            "{\n  \"b\": 1,\n  \"a\": \"x\",\n  \"list\": [\n    true,\n"
            "    null\n  ]\n}\n");
}

TEST(Dump, SetOverwritesInPlaceWithoutReordering) {
  Value obj = Value::object();
  obj.set("first", Value(1));
  obj.set("second", Value(2));
  obj.set("first", Value(9));
  EXPECT_EQ(obj.dump(0), "{\"first\":9,\"second\":2}");
}

TEST(Parse, RoundTripsEveryJsonType) {
  const std::string text =
      "{\"s\":\"he\\\"llo\\n\",\"n\":-2.5,\"i\":12,\"t\":true,\"f\":false,"
      "\"z\":null,\"a\":[1,[2],{}],\"o\":{\"k\":\"v\"}}";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.at("s").as_string(), "he\"llo\n");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -2.5);
  EXPECT_DOUBLE_EQ(v.at("i").as_number(), 12.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("z").is_null());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("o").at("k").as_string(), "v");
  // dump(parse(x)) == x for already-compact canonical text.
  EXPECT_EQ(v.dump(0), text);
  // And the pretty form re-parses to the same document.
  EXPECT_EQ(Value::parse(v.dump(2)).dump(0), text);
}

TEST(Parse, AcceptsUnicodeEscapesAndWhitespace) {
  const Value v = Value::parse("  { \"k\" :\n[ \"\\u0041\\u00e9\" ] }  ");
  EXPECT_EQ(v.at("k").as_array()[0].as_string(), "A\xc3\xa9");
}

TEST(Parse, RejectsMalformedDocuments) {
  EXPECT_THROW(Value::parse(""), vkey::Error);
  EXPECT_THROW(Value::parse("{\"a\":}"), vkey::Error);
  EXPECT_THROW(Value::parse("[1,2"), vkey::Error);
  EXPECT_THROW(Value::parse("\"unterminated"), vkey::Error);
  EXPECT_THROW(Value::parse("treu"), vkey::Error);
  EXPECT_THROW(Value::parse("1 2"), vkey::Error);  // trailing content
  EXPECT_THROW(Value::parse("{\"a\":1} x"), vkey::Error);
}

TEST(Parse, RejectsDeepNesting) {
  // Unbounded recursion would overflow the stack long before 200k levels;
  // the parser must refuse with a typed error instead.
  try {
    (void)Value::parse(std::string(200'000, '['));
    FAIL() << "200k-deep nesting parsed";
  } catch (const vkey::Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
  }
  // Alternating arrays and objects, `depth` containers deep.
  auto nested = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += i % 2 == 0 ? "[" : "{\"k\":";
    doc += "1";
    for (int i = depth - 1; i >= 0; --i) doc += i % 2 == 0 ? "]" : "}";
    return doc;
  };
  EXPECT_EQ(Value::parse(nested(200)).dump(0), nested(200));
  EXPECT_NO_THROW((void)Value::parse(nested(256)));
  EXPECT_THROW((void)Value::parse(nested(257)), vkey::Error);
}

/// A document shaped like a bench snapshot: escaped strings, negative and
/// exponent numbers, and tables nested inside arrays inside objects.
Value snapshot_like() {
  Value row = Value::array();
  row.push_back(Value("10%"));
  row.push_back(Value("say \"hi\"\\\tC:\\\\x\n\xc3\xa9"));
  row.push_back(Value(-42));
  row.push_back(Value(-1.5e-7));
  row.push_back(Value(6.02e23));
  Value rows = Value::array();
  rows.push_back(row);
  rows.push_back(Value::array());
  Value table = Value::object();
  table.set("id", Value("robustness_drop_sweep"));
  table.set("caption", Value("key \"establishment\" vs drop\r\n\x01"));
  table.set("rows", std::move(rows));
  Value tables = Value::array();
  tables.push_back(std::move(table));
  Value hist = Value::object();
  hist.set("count", Value(0));
  hist.set("p99", Value(0.1));
  hist.set("max", Value(-3.25e12));
  Value metrics = Value::object();
  metrics.set("reliability.attempt_ms", std::move(hist));
  metrics.set("empty", Value::object());
  Value doc = Value::object();
  doc.set("bench", Value("robustness"));
  doc.set("schema", Value(1));
  doc.set("quick", Value(true));
  doc.set("tables", std::move(tables));
  doc.set("notes", Value(nullptr));
  doc.set("metrics", std::move(metrics));
  return doc;
}

// bench_runner parses committed snapshots with Value::parse, so any byte
// string near a real document must be refused with vkey::Error or parse to
// a value whose dump is a fixed point: never another exception, a crash or
// a document that does not survive its own round trip.
TEST(Parse, MutatedDocumentsAreRejectedOrRoundTrip) {
  const Value doc = snapshot_like();
  const std::array<std::string, 3> seeds = {
      doc.dump(0), doc.dump(2),
      "{\"a\":[1E+2,-0.5e-3,0,-0,\"\\u0041\\/\\b\\f\\r\"],\"b\":{}}"};
  for (const auto& seed : seeds) ASSERT_NO_THROW((void)Value::parse(seed));
  const std::array<std::string, 6> splices = {"1e999", "1e-400", "\\u12",
                                              "[[[[",  "\"\\",   "-"};

  vkey::Rng rng(0x150f);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string text = seeds[pick(seeds.size())];
    switch (pick(5)) {
      case 0:  // 1-3 bit flips
        for (std::size_t f = pick(3) + 1; f > 0; --f) {
          text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1:  // truncation
        text.resize(pick(text.size()));
        break;
      case 2:  // byte insert
        text.insert(pick(text.size() + 1), 1, static_cast<char>(pick(256)));
        break;
      case 3:  // byte delete
        text.erase(pick(text.size()), 1);
        break;
      default: {  // token splice over 0-3 bytes
        const std::size_t at = pick(text.size() + 1);
        text.replace(at, pick(4), splices[pick(splices.size())]);
        break;
      }
    }
    std::optional<Value> parsed;
    try {
      parsed = Value::parse(text);
    } catch (const vkey::Error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const int indent : {0, 2}) {
      const std::string once = parsed->dump(indent);
      std::string twice;
      ASSERT_NO_THROW(twice = Value::parse(once).dump(indent))
          << "iteration " << iter << ": " << text;
      ASSERT_EQ(twice, once) << "iteration " << iter << ": " << text;
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 100u);
}

TEST(Accessors, ThrowOnTypeMismatchAndMissingKeys) {
  const Value v = Value::parse("{\"n\":1}");
  EXPECT_THROW(v.at("n").as_string(), vkey::Error);
  EXPECT_THROW(v.at("missing"), vkey::Error);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_NE(v.find("n"), nullptr);
}

// Non-finite doubles: format_number stays strict (tested above), but a
// document must never serialize to text a JSON parser rejects — dump
// normalizes NaN/Inf to null, and the result round-trips.
TEST(Dump, NonFiniteNumbersSerializeAsNull) {
  Value doc = Value::object();
  doc.set("nan", Value(std::numeric_limits<double>::quiet_NaN()));
  doc.set("pinf", Value(std::numeric_limits<double>::infinity()));
  doc.set("ninf", Value(-std::numeric_limits<double>::infinity()));
  doc.set("ok", Value(2.5));
  const std::string text = doc.dump(0);
  EXPECT_EQ(text, "{\"nan\":null,\"pinf\":null,\"ninf\":null,\"ok\":2.5}");

  const Value back = Value::parse(text);
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_TRUE(back.at("pinf").is_null());
  EXPECT_TRUE(back.at("ninf").is_null());
  EXPECT_EQ(back.at("ok").as_number(), 2.5);
}

TEST(Dump, NonFiniteInsideArraysAndNesting) {
  Value arr = Value::array();
  arr.push_back(Value(1.0));
  arr.push_back(Value(std::numeric_limits<double>::quiet_NaN()));
  Value doc = Value::object();
  doc.set("xs", std::move(arr));
  EXPECT_EQ(doc.dump(0), "{\"xs\":[1,null]}");
  // Still valid JSON after the normalization.
  EXPECT_NO_THROW(Value::parse(doc.dump(2)));
}

// The exporter contract: a table serialized by Table::to_json and re-read
// from text renders exactly the markdown the live object's JSON renders.
// This is what makes `bench_runner --regen-only` byte-identical on a second
// run.
TEST(Exporter, TableSurvivesJsonRoundTripByteIdentically) {
  Table t({"stage", "KAR", "note"});
  t.add_row({"probe", "98.87%", "includes | pipe"});
  t.add_row({"quantize", "0.53", "plain"});
  const Value j = t.to_json();
  const Value back = Value::parse(j.dump(2));
  EXPECT_EQ(Table::markdown_from_json(back),
            Table::markdown_from_json(t.to_json()));
  EXPECT_EQ(back.dump(0), j.dump(0));
}

}  // namespace
}  // namespace vkey::json
