// Sampler behavior: delta encoding against the live registry, the bounded
// ring, the monotone-time contract, and the disabled-metrics degenerate
// case. Every test samples through a unique "tlm.<test>." name prefix so the
// shared global registry (exercised by test_metrics.cpp in this binary)
// cannot leak instruments into these samples.
#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "metrics_on.h"

namespace vkey {
namespace {

telemetry::Sampler make_sampler(const std::string& prefix,
                                std::size_t ring_capacity = 4096) {
  telemetry::SamplerConfig cfg;
  cfg.include_prefixes = {prefix};
  cfg.ring_capacity = ring_capacity;
  cfg.source = "test_telemetry";
  return telemetry::Sampler(cfg);
}

json::Value parse_line(const std::string& line) {
  return json::Value::parse(line);
}

TEST(Telemetry, HeaderCarriesSchemaSourceFilterAndAnnotations) {
  MetricsOn on;
  telemetry::Sampler s = make_sampler("tlm.hdr.", 16);
  s.annotate("seed", "7");
  s.annotate("seed", "9");  // later write wins
  s.annotate("sessions", "100");

  const json::Value h = parse_line(s.header_line());
  EXPECT_EQ(h.at("schema").as_string(), "vkey-telemetry/1");
  EXPECT_EQ(h.at("source").as_string(), "test_telemetry");
  ASSERT_EQ(h.at("filter").size(), 1u);
  EXPECT_EQ(h.at("filter").as_array()[0].as_string(), "tlm.hdr.");
  EXPECT_EQ(h.at("ring_capacity").as_number(), 16.0);
  EXPECT_EQ(h.at("annotations").at("seed").as_string(), "9");
  EXPECT_EQ(h.at("annotations").at("sessions").as_string(), "100");
}

TEST(Telemetry, DeltaEncodingEmitsOnlyWhatChanged) {
  MetricsOn on;
  auto& reg = metrics::Registry::global();
  auto& sent = reg.counter("tlm.delta.sent");
  auto& idle = reg.counter("tlm.delta.idle");
  auto& depth = reg.gauge("tlm.delta.depth");
  auto& lat = reg.histogram("tlm.delta.latency_ms");

  telemetry::Sampler s = make_sampler("tlm.delta.");
  sent.add(5);
  depth.set(3.0);
  lat.observe(10.0);
  lat.observe(20.0);
  s.sample(0.0);

  // First sample: everything nonzero appears as a delta from zero; the
  // untouched counter is omitted entirely.
  json::Value line = parse_line(s.lines().at(0));
  EXPECT_EQ(line.at("seq").as_number(), 0.0);
  EXPECT_EQ(line.at("counters").at("tlm.delta.sent").as_number(), 5.0);
  EXPECT_EQ(line.at("counters").find("tlm.delta.idle"), nullptr);
  EXPECT_EQ(line.at("gauges").at("tlm.delta.depth").at("value").as_number(),
            3.0);
  EXPECT_EQ(line.at("hists").at("tlm.delta.latency_ms").at("dcount")
                .as_number(),
            2.0);

  // Nothing moved: the second sample is structurally valid but empty.
  s.sample(1000.0);
  line = parse_line(s.lines().at(1));
  EXPECT_EQ(line.at("seq").as_number(), 1.0);
  EXPECT_TRUE(line.at("counters").as_object().empty());
  EXPECT_TRUE(line.at("gauges").as_object().empty());
  EXPECT_TRUE(line.at("hists").as_object().empty());

  // Only the counter moved: the third sample carries exactly that delta.
  sent.add(2);
  s.sample(2000.0);
  line = parse_line(s.lines().at(2));
  EXPECT_EQ(line.at("counters").at("tlm.delta.sent").as_number(), 2.0);
  EXPECT_EQ(line.at("counters").size(), 1u);
  EXPECT_TRUE(line.at("gauges").as_object().empty());
  EXPECT_TRUE(line.at("hists").as_object().empty());
  (void)idle;
}

TEST(Telemetry, GaugeSamplesCarryWatermarksAndFireOnWatermarkOnlyMoves) {
  MetricsOn on;
  auto& g = metrics::Registry::global().gauge("tlm.wm.queue");
  telemetry::Sampler s = make_sampler("tlm.wm.");

  g.set(5.0);
  s.sample(0.0);
  json::Value e = parse_line(s.lines().at(0)).at("gauges").at("tlm.wm.queue");
  EXPECT_EQ(e.at("value").as_number(), 5.0);
  EXPECT_EQ(e.at("high").as_number(), 5.0);
  EXPECT_EQ(e.at("low").as_number(), 5.0);

  // A spike that returns to the old value still changes the high watermark,
  // so the gauge must appear again even though `value` is back at 5.
  g.set(9.0);
  g.set(5.0);
  s.sample(1000.0);
  e = parse_line(s.lines().at(1)).at("gauges").at("tlm.wm.queue");
  EXPECT_EQ(e.at("value").as_number(), 5.0);
  EXPECT_EQ(e.at("high").as_number(), 9.0);
  EXPECT_EQ(e.at("low").as_number(), 5.0);
}

TEST(Telemetry, PrefixFilterExcludesForeignInstruments) {
  MetricsOn on;
  auto& mine = metrics::Registry::global().counter("tlm.filter.kept");
  auto& other = metrics::Registry::global().counter("tlm.unfiltered.dropped");
  telemetry::Sampler s = make_sampler("tlm.filter.");
  mine.add(1);
  other.add(1);
  s.sample(0.0);
  const json::Value line = parse_line(s.lines().at(0));
  EXPECT_NE(line.at("counters").find("tlm.filter.kept"), nullptr);
  EXPECT_EQ(line.at("counters").find("tlm.unfiltered.dropped"), nullptr);
}

TEST(Telemetry, BoundedRingEvictsOldestAndCountsDrops) {
  MetricsOn on;
  telemetry::Sampler s = make_sampler("tlm.ring.", 2);
  for (int i = 0; i < 5; ++i) s.sample(1000.0 * i);

  EXPECT_EQ(s.samples_taken(), 5u);
  EXPECT_EQ(s.dropped(), 3u);
  const std::vector<std::string> lines = s.lines();
  ASSERT_EQ(lines.size(), 2u);
  // Oldest-first: the survivors are the last two samples, in order.
  EXPECT_EQ(parse_line(lines[0]).at("seq").as_number(), 3.0);
  EXPECT_EQ(parse_line(lines[1]).at("seq").as_number(), 4.0);

  const json::Value sum = parse_line(s.summary_line()).at("summary");
  EXPECT_EQ(sum.at("samples").as_number(), 5.0);
  EXPECT_EQ(sum.at("retained").as_number(), 2.0);
  EXPECT_EQ(sum.at("dropped").as_number(), 3.0);
  EXPECT_EQ(sum.at("last_t_ms").as_number(), 4000.0);
}

TEST(Telemetry, SampleTimesMustBeNonDecreasing) {
  MetricsOn on;
  telemetry::Sampler s = make_sampler("tlm.mono.");
  s.sample(100.0);
  s.sample(100.0);  // equal is fine (two phases can share a boundary)
  EXPECT_THROW(s.sample(99.0), vkey::Error);
  // The failed call must not have consumed a sequence number.
  EXPECT_EQ(s.samples_taken(), 2u);
}

TEST(Telemetry, DisabledMetricsYieldStructurallyValidEmptySamples) {
  MetricsOn on;
  auto& c = metrics::Registry::global().counter("tlm.off.writes");
  telemetry::Sampler s = make_sampler("tlm.off.");
  metrics::set_enabled(false);
  c.add(10);  // dropped by the disabled instrument
  s.sample(0.0);
  metrics::set_enabled(true);

  const json::Value line = parse_line(s.lines().at(0));
  EXPECT_TRUE(line.at("counters").as_object().empty());
  EXPECT_TRUE(line.at("gauges").as_object().empty());
  EXPECT_TRUE(line.at("hists").as_object().empty());
}

TEST(Telemetry, JsonlDocumentIsOneParsableObjectPerLine) {
  MetricsOn on;
  auto& c = metrics::Registry::global().counter("tlm.doc.events");
  telemetry::Sampler s = make_sampler("tlm.doc.");
  s.annotate("seed", "1");
  for (int i = 0; i < 3; ++i) {
    c.add(1);
    s.sample(500.0 * i);
  }

  const std::string doc = s.to_jsonl();
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.back(), '\n');
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = doc.find('\n'); nl != std::string::npos;
       nl = doc.find('\n', start)) {
    lines.push_back(doc.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 5u);  // header + 3 samples + summary
  for (const std::string& l : lines) EXPECT_NO_THROW(parse_line(l));
  EXPECT_EQ(parse_line(lines.front()).at("schema").as_string(),
            "vkey-telemetry/1");
  EXPECT_EQ(parse_line(lines.back()).at("summary").at("samples").as_number(),
            3.0);
  // Rendering the document must not consume the sampler: a second render
  // (and further samples) still work.
  EXPECT_EQ(s.to_jsonl(), doc);
  c.add(1);
  s.sample(2000.0);
  EXPECT_EQ(s.samples_taken(), 4u);
}

}  // namespace
}  // namespace vkey
