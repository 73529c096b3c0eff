#include "common/telemetry.h"

#include <fstream>
#include <utility>

#include "common/alloc_stats.h"
#include "common/error.h"
#include "common/metrics.h"

namespace vkey::telemetry {

const std::vector<std::string>& deterministic_prefixes() {
  static const std::vector<std::string> prefixes = {
      "arq.", "gateway.", "link.", "reliability.", "soak.", "wire.",
  };
  return prefixes;
}

Sampler::Sampler(SamplerConfig cfg)
    : cfg_(std::move(cfg)), ring_(cfg_.ring_capacity) {
  VKEY_REQUIRE(cfg_.ring_capacity >= 1,
               "telemetry ring needs room for at least one sample");
}

void Sampler::annotate(const std::string& key, const std::string& value) {
  annotations_.set(key, json::Value(value));
}

bool Sampler::included(const std::string& name) const {
  if (cfg_.include_prefixes.empty()) return true;
  for (const auto& p : cfg_.include_prefixes) {
    if (name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

void Sampler::sample(double t_ms) {
  // The sampler must not perturb the allocation accounting it reports:
  // everything below (snapshot, delta maps, the rendered line) allocates
  // freely but uncounted. Evicted ring lines are also freed inside this
  // scope, so alloc/free stay paired from alloc_stats' point of view.
  alloc_stats::PauseScope pause;
  VKEY_REQUIRE(seq_ == 0 || t_ms >= last_t_ms_,
               "telemetry sample times must be non-decreasing");
  // Refresh alloc.* gauges first so the snapshot below carries the current
  // totals (filtered out unless the caller opted into the alloc family).
  alloc_stats::publish_metrics();
  const json::Value snap = metrics::Registry::global().snapshot();

  json::Value line = json::Value::object();
  line.set("seq", json::Value(seq_));
  line.set("t_ms", json::Value(t_ms));

  json::Value counters = json::Value::object();
  for (const auto& [name, v] : snap.at("counters").as_object()) {
    if (!included(name)) continue;
    const double cur = v.as_number();
    double& prev = prev_counters_[name];
    if (cur != prev) {
      counters.set(name, json::Value(cur - prev));
      prev = cur;
    }
  }
  line.set("counters", std::move(counters));

  json::Value gauges = json::Value::object();
  for (const auto& [name, v] : snap.at("gauges").as_object()) {
    if (!included(name)) continue;
    GaugeState cur;
    cur.value = v.at("value").as_number();
    cur.high = v.at("high").as_number();
    cur.low = v.at("low").as_number();
    GaugeState& prev = prev_gauges_[name];
    if (!(cur == prev)) {
      json::Value e = json::Value::object();
      e.set("value", json::Value(cur.value));
      e.set("high", json::Value(cur.high));
      e.set("low", json::Value(cur.low));
      gauges.set(name, std::move(e));
      prev = cur;
    }
  }
  line.set("gauges", std::move(gauges));

  json::Value hists = json::Value::object();
  for (const auto& [name, v] : snap.at("histograms").as_object()) {
    if (!included(name)) continue;
    const double cur = v.at("count").as_number();
    double& prev = prev_hist_counts_[name];
    if (cur != prev) {
      json::Value e = json::Value::object();
      e.set("dcount", json::Value(cur - prev));
      for (const char* field : {"p50", "p90", "p99", "overflow", "max"}) {
        e.set(field, json::Value(v.at(field).as_number()));
      }
      hists.set(name, std::move(e));
      prev = cur;
    }
  }
  line.set("hists", std::move(hists));

  ring_.push(line.dump(0));
  last_t_ms_ = t_ms;
  ++seq_;
}

std::string Sampler::header_line() const {
  json::Value header = json::Value::object();
  header.set("schema", json::Value("vkey-telemetry/1"));
  header.set("source", json::Value(cfg_.source));
  json::Value filter = json::Value::array();
  for (const auto& p : cfg_.include_prefixes) filter.push_back(json::Value(p));
  header.set("filter", std::move(filter));
  header.set("ring_capacity", json::Value(cfg_.ring_capacity));
  // Copy, not move: writing the document must leave the sampler usable.
  header.set("annotations", annotations_);
  return header.dump(0);
}

std::string Sampler::summary_line() const {
  json::Value summary = json::Value::object();
  json::Value body = json::Value::object();
  body.set("samples", json::Value(seq_));
  body.set("retained", json::Value(ring_.size()));
  body.set("dropped", json::Value(ring_.dropped()));
  body.set("last_t_ms", json::Value(last_t_ms_));
  summary.set("summary", std::move(body));
  return summary.dump(0);
}

std::string Sampler::to_jsonl() const {
  std::string out = header_line();
  out += '\n';
  ring_.for_each([&out](const std::string& line) {
    out += line;
    out += '\n';
  });
  out += summary_line();
  out += '\n';
  return out;
}

void Sampler::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  VKEY_REQUIRE(out.good(), "cannot open telemetry output: " + path);
  const std::string doc = to_jsonl();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  VKEY_REQUIRE(out.good(), "short write on telemetry output: " + path);
}

}  // namespace vkey::telemetry
