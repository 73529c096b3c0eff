#include "common/bench_io.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace vkey {

namespace {

constexpr const char* kUsage =
    "[--quick] [--json <path>] [--threads <n>] [--trace-out <path>] "
    "[--telemetry-out <path>] [--telemetry-all]";

}  // namespace

std::optional<std::size_t> parse_count(std::string_view s) {
  std::size_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size() || v == 0) {
    return std::nullopt;
  }
  return v;
}

BenchReport::BenchReport(std::string name, int argc, char** argv)
    : name_(std::move(name)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json needs a path\n", argv[0]);
        std::exit(2);
      }
      path_ = argv[++i];
    } else if (arg == "--threads") {
      const auto n = i + 1 < argc ? parse_count(argv[++i]) : std::nullopt;
      if (!n) {
        std::fprintf(stderr, "%s: --threads needs a positive integer\n",
                     argv[0]);
        std::exit(2);
      }
      parallel::set_default_threads(*n);
    } else if (arg == "--telemetry-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --telemetry-out needs a path\n", argv[0]);
        std::exit(2);
      }
      telemetry_path_ = argv[++i];
    } else if (arg == "--telemetry-all") {
      telemetry_all_ = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --trace-out needs a path\n", argv[0]);
        std::exit(2);
      }
      trace_path_ = argv[++i];
      // Span capture costs an allocation per named timer, so it is opt-in:
      // requesting an export turns the log on for this run.
      trace::TraceLog::global().set_enabled(true);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s %s\n", argv[0], kUsage);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s' (usage: %s %s)\n",
                   argv[0], arg.c_str(), argv[0], kUsage);
      std::exit(2);
    }
  }
}

void BenchReport::add_table(const std::string& id, const std::string& caption,
                            const Table& t) {
  json::Value entry = json::Value::object();
  entry.set("id", json::Value(id));
  entry.set("caption", json::Value(caption));
  const json::Value tj = t.to_json();
  entry.set("headers", tj.at("headers"));
  entry.set("rows", tj.at("rows"));
  tables_.push_back(std::move(entry));
}

void BenchReport::add_scalar(const std::string& key, double value) {
  scalars_.set(key, json::Value(value));
}

void BenchReport::add_note(const std::string& key, const std::string& text) {
  notes_.set(key, json::Value(text));
}

void BenchReport::set_telemetry(const telemetry::Sampler* sampler) {
  telemetry_ = sampler;
}

bool BenchReport::write() {
  if (!telemetry_path_.empty() && telemetry_ != nullptr) {
    telemetry_->write_jsonl(telemetry_path_);
    std::fprintf(stderr, "wrote %s\n", telemetry_path_.c_str());
  }
  if (!trace_path_.empty()) {
    // All domains: bench spans are wall-clock and meant for profiling, not
    // for byte-diffing (that is vkey_sim's virtual-only export).
    if (trace::TraceLog::global().write_chrome_trace(trace_path_,
                                                     /*virtual_only=*/false)) {
      std::fprintf(stderr, "wrote %s\n", trace_path_.c_str());
    }
  }
  if (path_.empty()) return false;
  json::Value doc = json::Value::object();
  doc.set("bench", json::Value(name_));
  doc.set("schema", json::Value(1));
  doc.set("quick", json::Value(quick_));
  doc.set("tables", tables_);
  doc.set("scalars", scalars_);
  doc.set("notes", notes_);
  doc.set("metrics", metrics::Registry::global().snapshot());

  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_io: cannot write %s\n", path_.c_str());
    return false;
  }
  out << doc.dump(2);
  std::fprintf(stderr, "wrote %s\n", path_.c_str());
  return true;
}

}  // namespace vkey
