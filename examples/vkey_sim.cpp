// vkey_sim — command-line driver for the Vehicle-Key pipeline.
//
// Runs the full key-generation pipeline on a configurable scenario and
// prints the evaluation metrics; useful for parameter exploration without
// writing code.
//
//   ./build/examples/vkey_sim --scenario v2v-urban --speed 60
//       --train-rounds 600 --test-rounds 400 --seed 7 [--no-prediction]
//
// Flags (all optional):
//   --scenario {v2i-urban|v2i-rural|v2v-urban|v2v-rural}   default v2v-urban
//   --speed KMH            vehicle speed                    default 50
//   --train-rounds N       probe rounds used for training   default 600
//   --test-rounds N        probe rounds used for evaluation default 400
//   --hidden N             BiLSTM hidden units              default 32
//   --epochs N             predictor training epochs (>= 1) default 40
//   --seed N               simulation seed                  default 1
//   --no-prediction        ablate the BiLSTM (direct quantization)
//   --int8                 run predictor *inference* through the int8
//                          fused kernels with polynomial activations
//                          (training stays float; see DESIGN.md "NN
//                          kernel core" for the KAR impact)
//
// Fault injection (any of these enables the reliable-link phase, which
// replays every evaluation block through the ARQ transport over a lossy
// virtual LoRa link):
//   --drop P               per-frame drop probability       default 0
//   --reorder P            per-frame reorder probability    default 0
//   --dup P                per-frame duplication probability default 0
//   --corrupt P            per-frame bit-corruption probability default 0
//   --link-seed N          fault/backoff seed               default 1
// Out-of-range probabilities are clamped into [0, 1] (drop into [0, 1))
// with a warning on stderr.
//
// Gateway mode:
//   --gateway N            after the pipeline run, drive N concurrent
//                          device sessions through the shared-clock
//                          GatewayEngine (admission control, rekey, idle
//                          eviction) using the pipeline's reconciler and
//                          evaluation blocks as probe material; the fault
//                          flags above shape every session's link
//   --max-inflight N       gateway establishment slots       default 256
//
// Observability:
//   --metrics              dump the metrics registry (counters, gauges,
//                          stage timers) after the run
//   --metrics-json PATH    write the registry snapshot as JSON to PATH
//   --trace-out PATH       enable span tracing and write the run's
//                          virtual-clock span tree (reliability attempts +
//                          flight-recorder events) as Chrome trace-event
//                          JSON; loadable in chrome://tracing / Perfetto and
//                          byte-identical across --threads values
//   --telemetry-out PATH   write delta-encoded telemetry samples as JSONL:
//                          one baseline sample after the pipeline, one after
//                          the reliable-link phase, and 1 s virtual-grid
//                          samples through the gateway run; restricted to
//                          the lane-invariant metric families, so the file
//                          is byte-identical across --threads values
//   --telemetry-all        widen the telemetry filter to every metric family
//                          (profiling mode; no longer byte-diffable)
//   --threads N            worker lanes for the parallel pipeline stages
//                          (N=1 is the bit-exact sequential reference)
// When the reliable-link phase fails blocks, up to three failed sessions
// are replayed and their flight-recorder timelines printed for post-mortem
// (then "N more failed blocks suppressed"); the replays count in --metrics
// and appear in --trace-out.
//
// Exit status: 0 on success, 1 when an output file cannot be written, 2 on
// a bad flag or a value the library rejects (e.g. `--hidden 1`), with one
// "vkey_sim: <reason>" line on stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "protocol/gateway.h"
#include "protocol/reliability.h"
#include "protocol/wire.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario v2i-urban|v2i-rural|v2v-urban|"
               "v2v-rural] [--speed KMH] [--train-rounds N] "
               "[--test-rounds N] [--hidden N] [--epochs N] "
               "[--seed N] [--no-prediction] [--int8] "
               "[--drop P] [--reorder P] [--dup P] [--corrupt P] "
               "[--link-seed N] [--gateway N] [--max-inflight N] "
               "[--metrics] [--metrics-json PATH] "
               "[--trace-out PATH] [--telemetry-out PATH] [--telemetry-all] "
               "[--threads N]\n",
               argv0);
  std::exit(2);
}

/// Strict numeric flag parsing: `std::atof`/`std::atoll` return 0 on
/// garbage, so `--drop banana` would silently run a lossless link. Require
/// the whole token to parse or bail out through usage().
double parse_double(const char* flag, const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, s);
    usage(argv0);
  }
  return v;
}

std::uint64_t parse_u64(const char* flag, const char* s, const char* argv0) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                 flag, s);
    usage(argv0);
  }
  return static_cast<std::uint64_t>(v);
}

/// Clamp a fault probability into [lo, hi], warning on stderr when the
/// value had to be moved (a typo'd `--drop 25` should not silently behave
/// like certain loss).
double clamp_prob(const char* flag, double v, double lo, double hi) {
  const double clamped = std::clamp(v, lo, hi);
  if (clamped != v) {
    std::fprintf(stderr,
                 "vkey_sim: %s %g is outside [%g, %g]; clamping to %g\n",
                 flag, v, lo, hi, clamped);
  }
  return clamped;
}

ScenarioKind parse_scenario(const std::string& s, const char* argv0) {
  if (s == "v2i-urban") return ScenarioKind::kV2IUrban;
  if (s == "v2i-rural") return ScenarioKind::kV2IRural;
  if (s == "v2v-urban") return ScenarioKind::kV2VUrban;
  if (s == "v2v-rural") return ScenarioKind::kV2VRural;
  std::fprintf(stderr, "unknown scenario '%s'\n", s.c_str());
  usage(argv0);
}

int sim_main(int argc, char** argv) {
  ScenarioKind kind = ScenarioKind::kV2VUrban;
  double speed = 50.0;
  std::size_t train_rounds = 600, test_rounds = 400;
  protocol::FaultConfig fault;
  bool run_link = false;
  std::size_t gateway_sessions = 0;
  std::size_t gateway_inflight = 256;
  bool dump_metrics = false;
  std::string metrics_json_path;
  std::string trace_out_path;
  std::string telemetry_out_path;
  bool telemetry_all = false;
  PipelineConfig cfg;
  cfg.predictor.hidden = 32;
  cfg.predictor_epochs = 40;
  cfg.trace.seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto next_double = [&]() { return parse_double(arg.c_str(), next(), argv[0]); };
    auto next_u64 = [&]() { return parse_u64(arg.c_str(), next(), argv[0]); };
    if (arg == "--scenario") kind = parse_scenario(next(), argv[0]);
    else if (arg == "--speed") speed = next_double();
    else if (arg == "--train-rounds") train_rounds = static_cast<std::size_t>(next_u64());
    else if (arg == "--test-rounds") test_rounds = static_cast<std::size_t>(next_u64());
    else if (arg == "--hidden") cfg.predictor.hidden = static_cast<std::size_t>(next_u64());
    else if (arg == "--epochs") { cfg.predictor_epochs = static_cast<std::size_t>(next_u64()); if (cfg.predictor_epochs == 0) usage(argv[0]); }
    else if (arg == "--seed") cfg.trace.seed = next_u64();
    else if (arg == "--no-prediction") cfg.use_prediction = false;
    else if (arg == "--int8") cfg.predictor.quantized = true;
    // The channel model requires drop < 1 (certain loss can never make
    // progress); the other fault probabilities live in [0, 1].
    else if (arg == "--drop") { fault.drop_prob = clamp_prob("--drop", next_double(), 0.0, 0.99); run_link = true; }
    else if (arg == "--reorder") { fault.reorder_prob = clamp_prob("--reorder", next_double(), 0.0, 1.0); run_link = true; }
    else if (arg == "--dup") { fault.dup_prob = clamp_prob("--dup", next_double(), 0.0, 1.0); run_link = true; }
    else if (arg == "--corrupt") { fault.corrupt_prob = clamp_prob("--corrupt", next_double(), 0.0, 1.0); run_link = true; }
    else if (arg == "--link-seed") { fault.seed = next_u64(); run_link = true; }
    else if (arg == "--gateway") { gateway_sessions = static_cast<std::size_t>(next_u64()); if (gateway_sessions == 0) usage(argv[0]); }
    else if (arg == "--max-inflight") { gateway_inflight = static_cast<std::size_t>(next_u64()); if (gateway_inflight == 0) usage(argv[0]); }
    else if (arg == "--metrics") dump_metrics = true;
    else if (arg == "--metrics-json") metrics_json_path = next();
    else if (arg == "--trace-out") { trace_out_path = next(); trace::TraceLog::global().set_enabled(true); }
    else if (arg == "--telemetry-out") telemetry_out_path = next();
    else if (arg == "--telemetry-all") telemetry_all = true;
    else if (arg == "--threads") {
      const std::uint64_t n = next_u64();
      if (n == 0) usage(argv[0]);
      parallel::set_default_threads(static_cast<std::size_t>(n));
    }
    else usage(argv[0]);
  }
  if (speed <= 0.0 || train_rounds == 0 || test_rounds == 0) usage(argv[0]);

  cfg.trace.scenario = make_scenario(kind, speed);

  std::printf("vkey_sim: %s at %.0f km/h, seed %llu, %zu train / %zu test "
              "rounds, prediction %s\n",
              to_string(kind).c_str(), speed,
              static_cast<unsigned long long>(cfg.trace.seed), train_rounds,
              test_rounds,
              !cfg.use_prediction      ? "off"
              : cfg.predictor.quantized ? "on (int8)"
                                        : "on");

  // Optional telemetry: one sampler spans all phases on a single monotone
  // virtual timeline (each phase's SimClock starts at zero, so their spans
  // are stacked end to end via `telemetry_vt_ms`). The full gateway-stack
  // taxonomy is registered up front so every sample sees the same
  // instrument universe regardless of which faults or rejects fire.
  std::optional<telemetry::Sampler> telemetry;
  double telemetry_vt_ms = 0.0;
  if (!telemetry_out_path.empty()) {
    telemetry::SamplerConfig scfg;
    if (!telemetry_all) {
      scfg.include_prefixes = telemetry::deterministic_prefixes();
    }
    scfg.source = "vkey_sim";
    telemetry.emplace(std::move(scfg));
    if (metrics::enabled()) protocol::register_gateway_metrics();
  }

  KeyGenPipeline pipeline(cfg);
  const auto m = pipeline.run(train_rounds, test_rounds);
  // Baseline after the (wall-clock, lane-dependent) pipeline phase: the
  // virtual phases that follow then delta cleanly against it.
  if (telemetry) telemetry->sample(telemetry_vt_ms);

  Table t({"metric", "value"});
  t.add_row({"key blocks evaluated", std::to_string(m.blocks)});
  t.add_row({"KAR pre-reconciliation", Table::pct(m.mean_kar_pre)});
  t.add_row({"KAR post-reconciliation",
             Table::pct(m.mean_kar_post) + " ± " +
                 Table::pct(m.std_kar_post, 2)});
  t.add_row({"exact-key block rate", Table::pct(m.key_success_rate)});
  t.add_row({"KGR (net secret bit/s)", Table::fmt(m.kgr_bits_per_s, 3)});
  t.add_row({"Eve KAR (iterative misuse)",
             Table::pct(m.mean_eve_kar_iterative)});
  t.add_row({"evaluation span", Table::fmt(m.test_duration_s, 0) + " s"});
  t.print("results");

  if (run_link) {
    // Replay every evaluation block through the ARQ transport over a lossy
    // virtual LoRa link; session recovery harvests the next block's probe
    // material when an attempt burns its retry budget.
    const auto& blocks = pipeline.blocks();
    if (blocks.empty()) {
      std::printf("\nno evaluation blocks to drive over the lossy link\n");
      return 0;
    }
    std::printf("\nreliable-link phase: drop %.0f%%, reorder %.0f%%, dup "
                "%.0f%%, corrupt %.0f%%, link seed %llu\n",
                100.0 * fault.drop_prob, 100.0 * fault.reorder_prob,
                100.0 * fault.dup_prob, 100.0 * fault.corrupt_prob,
                static_cast<unsigned long long>(fault.seed));

    std::size_t established = 0, attempts = 0, retransmissions = 0;
    std::size_t frames = 0;
    constexpr std::size_t kMaxFailureDumps = 3;
    std::size_t failed_blocks = 0, dumps_shown = 0;
    std::vector<double> times;
    std::vector<std::size_t> failures(6, 0);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      protocol::ReliabilityConfig rcfg;
      rcfg.fault = fault;
      rcfg.fault.seed = hash_combine64(fault.seed, i);
      rcfg.arq.seed = hash_combine64(fault.seed ^ 0xa2c, i);
      rcfg.base_session_id = 1 + i * 16;
      const auto material = [&blocks, i](std::size_t attempt) {
        const auto& b = blocks[(i + attempt) % blocks.size()];
        return std::make_pair(b.alice_raw, b.bob_key);
      };
      protocol::PublicChannel base;
      const auto report = protocol::run_reliable_key_agreement(
          base, pipeline.reconciler(), rcfg, material);
      attempts += report.attempts;
      frames += report.link.sent;
      for (const auto& att : report.attempt_log) {
        retransmissions += att.alice_transport.retransmissions +
                           att.bob_transport.retransmissions;
      }
      if (report.established) {
        ++established;
        times.push_back(report.time_to_establish_ms);
      } else {
        ++failures[static_cast<std::size_t>(report.failure)];
        ++failed_blocks;
        // Post-mortem: replay failed sessions with the flight recorder on
        // and print their timelines, so the injected fault is visible —
        // bounded, so a high-loss sweep cannot flood the console.
        if (dumps_shown < kMaxFailureDumps) {
          ++dumps_shown;
          const std::string dump = protocol::failure_dump(
              base, pipeline.reconciler(), rcfg, material);
          std::printf("\nblock %zu failed; recent attempts' timelines:\n%s",
                      i, dump.c_str());
        }
      }
    }
    if (failed_blocks > dumps_shown) {
      std::printf("\n%zu more failed block(s) suppressed\n",
                  failed_blocks - dumps_shown);
    }
    std::sort(times.begin(), times.end());
    const double median_ms =
        times.empty() ? 0.0
        : times.size() % 2 == 1
            ? times[times.size() / 2]
            : 0.5 * (times[times.size() / 2 - 1] + times[times.size() / 2]);

    Table lt({"metric", "value"});
    lt.add_row({"blocks driven over link", std::to_string(blocks.size())});
    lt.add_row({"established", Table::pct(static_cast<double>(established) /
                                          static_cast<double>(blocks.size()))});
    lt.add_row({"mean session attempts",
                Table::fmt(static_cast<double>(attempts) /
                               static_cast<double>(blocks.size()),
                           2)});
    lt.add_row({"median time-to-key", Table::fmt(median_ms / 1000.0, 2) + " virt s"});
    lt.add_row({"wire frames total", std::to_string(frames)});
    lt.add_row({"retransmissions total", std::to_string(retransmissions)});
    for (std::size_t r = 1; r < failures.size(); ++r) {
      if (failures[r] == 0) continue;
      lt.add_row({"failures: " +
                      to_string(static_cast<protocol::FailureReason>(r)),
                  std::to_string(failures[r])});
    }
    lt.print("reliable key agreement over the lossy link");

    if (telemetry) {
      // Each block ran on its own SimClock; advance the shared timeline by
      // the summed establishment spans and close the phase with one sample.
      double span_ms = 0.0;
      for (const double v : times) span_ms += v;
      telemetry_vt_ms += span_ms;
      telemetry->sample(telemetry_vt_ms);
    }
  }

  if (gateway_sessions > 0) {
    // Gateway mode: N devices arrive at one shared-clock gateway; each
    // session's link carries the fault flags above, and probe material
    // cycles through the pipeline's evaluation blocks (pure per device, so
    // the engine may batch sessions through the parallel pool).
    const auto& blocks = pipeline.blocks();
    if (blocks.empty()) {
      std::printf("\nno evaluation blocks to feed the gateway\n");
      return 0;
    }
    std::printf("\ngateway mode: %zu device sessions, %zu establishment "
                "slots, drop %.0f%%, corrupt %.0f%%\n",
                gateway_sessions, gateway_inflight, 100.0 * fault.drop_prob,
                100.0 * fault.corrupt_prob);
    protocol::GatewayConfig gcfg;
    gcfg.sessions = gateway_sessions;
    gcfg.max_inflight = gateway_inflight;
    gcfg.reliability.fault = fault;
    gcfg.seed = hash_combine64(cfg.trace.seed, fault.seed);
    protocol::GatewayEngine engine(
        gcfg, pipeline.reconciler(),
        [&blocks](std::uint64_t device, std::size_t attempt) {
          const auto& b = blocks[(device + attempt) % blocks.size()];
          return std::make_pair(b.alice_raw, b.bob_key);
        });
    if (cfg.use_prediction) {
      // Attempt-0 prefetch: one infer_batch per simulation batch
      // regenerates, live, the same bits the per-attempt source reads out
      // of the cached evaluation blocks (infer_batch runs infer() per
      // window, the path that produced those blocks, so the two sources
      // agree as BatchMaterialFn requires). A block is one window.
      const auto& samples = pipeline.test_samples();
      const std::size_t n_blocks = blocks.size();
      engine.set_batch_material(
          [&pipeline, &samples, n_blocks](std::uint64_t first,
                                          std::size_t count) {
            std::vector<vkey::nn::Vec> windows;
            windows.reserve(count);
            for (std::size_t d = 0; d < count; ++d) {
              windows.push_back(samples[(first + d) % n_blocks].alice_seq);
            }
            const auto outs = pipeline.predictor().infer_batch(windows);
            std::vector<std::pair<BitVec, BitVec>> material(count);
            for (std::size_t d = 0; d < count; ++d) {
              material[d] = {outs[d].bits,
                             samples[(first + d) % n_blocks].bob_bits};
            }
            return material;
          });
    }
    if (telemetry) {
      // Telemetry rides the engine's lifecycle tick: samples land on a 1 s
      // virtual grid, offset by the phases already on the shared timeline.
      const double vbase_ms = telemetry_vt_ms;
      engine.set_tick([&telemetry, vbase_ms](double now_ms) {
        telemetry->sample(vbase_ms + now_ms);
      });
    }
    const auto g = engine.run();
    if (telemetry) {
      telemetry_vt_ms += g.makespan_ms;
      telemetry->sample(telemetry_vt_ms);  // phase-boundary sample
    }

    Table gt({"metric", "value"});
    gt.add_row({"sessions", std::to_string(g.sessions)});
    gt.add_row({"established",
                Table::pct(static_cast<double>(g.established) /
                           static_cast<double>(g.sessions))});
    gt.add_row({"keys/s (virtual)", Table::fmt(g.keys_per_vsecond, 1)});
    gt.add_row({"median time-to-key",
                Table::fmt(g.median_time_to_key_ms, 1) + " virt ms"});
    gt.add_row({"p95 time-to-key",
                Table::fmt(g.p95_time_to_key_ms, 1) + " virt ms"});
    gt.add_row({"mean queue wait",
                Table::fmt(g.mean_queue_wait_ms, 1) + " virt ms"});
    gt.add_row({"bytes / established session",
                Table::fmt(g.bytes_per_session, 1)});
    gt.add_row({"rekeys", std::to_string(g.rekeys)});
    gt.add_row({"evictions (idle / failed)",
                std::to_string(g.evicted_idle) + " / " +
                    std::to_string(g.evicted_failed)});
    gt.add_row({"peak in-flight / queued",
                std::to_string(g.peak_inflight) + " / " +
                    std::to_string(g.peak_queued)});
    gt.add_row({"makespan",
                Table::fmt(g.makespan_ms / 1000.0, 1) + " virt s"});
    gt.print("gateway multi-session run");

    for (const auto& dump : g.failure_dumps) {
      std::printf("\nfailed session post-mortem: %s", dump.c_str());
    }
    if (g.failures_suppressed > 0) {
      std::printf("\n%zu more failed session(s) suppressed\n",
                  g.failures_suppressed);
    }
  }

  // Register the full wire.reject.* taxonomy before any dump so the CSV /
  // JSON structure is the same whether or not a given reject fired.
  if (metrics::enabled() && (dump_metrics || !metrics_json_path.empty())) {
    protocol::wire::register_wire_metrics();
  }
  if (dump_metrics) {
    if (metrics::enabled()) {
      std::printf("\nmetrics registry (VKEY_METRICS=off disables "
                  "collection):\n%s",
                  metrics::Registry::global().to_csv().c_str());
    } else {
      std::printf("\nmetrics collection is disabled (VKEY_METRICS=off)\n");
    }
  }
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "vkey_sim: cannot write %s\n",
                   metrics_json_path.c_str());
      return 1;
    }
    out << metrics::Registry::global().snapshot().dump(2);
    std::fprintf(stderr, "wrote %s\n", metrics_json_path.c_str());
  }
  if (telemetry) {
    telemetry->write_jsonl(telemetry_out_path);
    std::fprintf(stderr, "wrote %s\n", telemetry_out_path.c_str());
  }
  if (!trace_out_path.empty()) {
    // Virtual-clock spans only: SimClock time and the canonical
    // (start, id) export order make the file byte-identical for any
    // --threads value, so CI can diff it across lane counts.
    if (trace::TraceLog::global().write_chrome_trace(trace_out_path,
                                                     /*virtual_only=*/true)) {
      std::fprintf(stderr, "wrote %s\n", trace_out_path.c_str());
    } else {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A size the library rejects (a 1-unit BiLSTM, too few rounds for one key
  // block) or no vector can hold (--test-rounds or
  // --gateway near 2^64) is a bad flag value: report it like one.
  // std::exception covers both vkey::Error and std::length_error.
  try {
    return sim_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vkey_sim: %s\n", e.what());
    return 2;
  }
}
