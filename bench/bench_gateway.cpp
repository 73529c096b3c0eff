// Gateway scale sweep — one shared event queue, thousands of sessions.
//
// Drives the GatewayEngine (protocol/gateway.h) through three sweeps:
//
//   gateway_scale      1k -> 100k devices arriving at one gateway over a
//                      lossless SF7 link: keys/s of virtual throughput,
//                      time-to-key under admission contention (median/p95,
//                      queueing included), steady-state wire bytes per
//                      established session.
//   gateway_contention fixed arrival load, sweep the admission-control
//                      window (max in-flight establishments) to show the
//                      queue-wait / concurrency trade.
//   gateway_faults     frame drops on every session's link: establishment
//                      rate, failure evictions, and the bounded post-run
//                      failure dumps (regenerated deterministically).
//
// Flags: the suite-standard --json/--quick/--threads/--trace-out
// (bench_io.h), plus `--sessions N` to pin the scale sweep to one session
// count (CI uses `--sessions 10000 --quick`). All reported quantities are
// virtual-time and independent of the lane count: CI byte-diffs the
// --threads 1 and --threads 4 snapshots.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_io.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/reconciler.h"
#include "protocol/gateway.h"

using namespace vkey;
using namespace vkey::protocol;

namespace {

/// Pure per-device probe material: Bob's raw key plus Alice's 3-bit-noisy
/// view, derived from (device, attempt) alone so pool lanes can call it
/// concurrently.
GatewayEngine::MaterialFn make_material() {
  return [](std::uint64_t device, std::size_t attempt) {
    const std::uint64_t seed =
        hash_combine64(hash_combine64(0x9a7e, device), attempt);
    const BitVec kb = random_bits(64, vkey::Rng(seed));
    return std::make_pair(with_flips(kb, 3, vkey::Rng(seed ^ 0x5a5a)), kb);
  };
}

GatewayConfig base_config(std::size_t sessions) {
  GatewayConfig cfg;
  cfg.sessions = sessions;
  cfg.max_inflight = 256;
  cfg.arrival_interval_ms = 5.0;
  cfg.reliability.radio.spreading_factor = 7;  // compact virtual timescales
  // Deep retry budget: the 3-attempt default already establishes all of
  // 10k sessions here; six attempts keep the 100%-establishment gate
  // holding at 100k sessions.
  cfg.reliability.max_session_attempts = 6;
  return cfg;
}

/// Optional telemetry across the whole suite: every engine run ticks a
/// shared sampler on a 1 s virtual grid, with virtual time accumulating
/// across runs (`vbase`) so the JSONL is one monotone timeline. Sampling
/// restricted to the deterministic families stays byte-identical across
/// --threads lane counts.
struct SuiteTelemetry {
  telemetry::Sampler sampler;
  double vbase_ms = 0.0;
};

GatewayReport run_gateway(const GatewayConfig& cfg,
                          const core::SyndromeCode& reconciler,
                          SuiteTelemetry* telem) {
  GatewayEngine engine(cfg, reconciler, make_material());
  if (telem != nullptr) {
    engine.set_tick([telem](double now_ms) {
      telem->sampler.sample(telem->vbase_ms + now_ms);
    });
  }
  GatewayReport rep = engine.run();
  if (telem != nullptr) {
    telem->vbase_ms += rep.makespan_ms;
    telem->sampler.sample(telem->vbase_ms);  // run-boundary sample
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  // `--sessions N` is gateway-specific; peel it off before BenchReport
  // (which exits on flags it does not know) sees the argument vector.
  std::size_t sessions_override = 0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      const auto v = parse_count(argv[++i]);
      if (!v) {
        std::fprintf(stderr, "--sessions expects a positive integer\n");
        return 2;
      }
      sessions_override = *v;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchReport report("gateway", static_cast<int>(args.size()), args.data());

  SuiteTelemetry telemetry_state{
      telemetry::Sampler([&report] {
        telemetry::SamplerConfig scfg;
        if (!report.telemetry_all()) {
          scfg.include_prefixes = telemetry::deterministic_prefixes();
        }
        scfg.source = "bench_gateway";
        return scfg;
      }()),
      0.0};
  SuiteTelemetry* telem =
      report.telemetry_path().empty() ? nullptr : &telemetry_state;
  report.set_telemetry(&telemetry_state.sampler);

  // The sessions' public syndrome code: 64-bit keys, the default seed.
  const core::SyndromeCode reconciler(64, 11);

  // ---------------------------------------------------------------- scale
  std::vector<std::size_t> scale_points =
      report.quick() ? std::vector<std::size_t>{1'000, 10'000}
                     : std::vector<std::size_t>{1'000, 10'000, 100'000};
  if (sessions_override > 0) scale_points = {sessions_override};

  Table st({"sessions", "established", "keys/s [virt]",
            "median time-to-key [virt ms]", "p95 time-to-key [virt ms]",
            "mean queue wait [virt ms]", "bytes / session", "peak queue"});
  bool all_established = true;
  for (const std::size_t n : scale_points) {
    const GatewayReport g = run_gateway(base_config(n), reconciler, telem);
    all_established = all_established && g.established == g.sessions;
    st.add_row({std::to_string(n),
                Table::pct(static_cast<double>(g.established) /
                           static_cast<double>(g.sessions)),
                Table::fmt(g.keys_per_vsecond, 1),
                Table::fmt(g.median_time_to_key_ms, 1),
                Table::fmt(g.p95_time_to_key_ms, 1),
                Table::fmt(g.mean_queue_wait_ms, 1),
                Table::fmt(g.bytes_per_session, 1),
                std::to_string(g.peak_queued)});
  }
  const std::string scale_caption =
      "Gateway scale: one shared event queue, lossless SF7 links, 5 ms "
      "inter-arrival, 256 establishment slots";
  st.print(scale_caption);
  report.add_table("gateway_scale", scale_caption, st);

  // ----------------------------------------------------------- contention
  // Load-shape studies: these stay at their scaled sizes even under
  // --sessions, which pins only the scale sweep (CI smoke stays cheap).
  const std::size_t contention_sessions = report.scaled(10'000, 2'000);
  Table ct({"max in-flight", "keys/s [virt]", "median time-to-key [virt ms]",
            "p95 time-to-key [virt ms]", "mean queue wait [virt ms]",
            "peak queue", "makespan [virt s]"});
  for (const std::size_t inflight : {64u, 256u, 1024u}) {
    GatewayConfig cfg = base_config(contention_sessions);
    cfg.max_inflight = inflight;
    const GatewayReport g = run_gateway(cfg, reconciler, telem);
    ct.add_row({std::to_string(inflight), Table::fmt(g.keys_per_vsecond, 1),
                Table::fmt(g.median_time_to_key_ms, 1),
                Table::fmt(g.p95_time_to_key_ms, 1),
                Table::fmt(g.mean_queue_wait_ms, 1),
                std::to_string(g.peak_queued),
                Table::fmt(g.makespan_ms / 1000.0, 1)});
  }
  const std::string contention_caption =
      "Admission contention: " + std::to_string(contention_sessions) +
      " sessions, sweeping the establishment-slot window";
  ct.print(contention_caption);
  report.add_table("gateway_contention", contention_caption, ct);

  // ---------------------------------------------------------------- faults
  const std::size_t fault_sessions = report.scaled(2'000, 500);
  Table ft({"drop rate", "established", "failed evictions", "mean attempts",
            "median time-to-key [virt ms]", "bytes / session",
            "dumps (shown+suppressed)"});
  for (const double drop : {0.0, 0.10, 0.30}) {
    GatewayConfig cfg = base_config(fault_sessions);
    cfg.reliability.fault.drop_prob = drop;
    const GatewayReport g = run_gateway(cfg, reconciler, telem);
    ft.add_row({Table::pct(drop),
                Table::pct(static_cast<double>(g.established) /
                           static_cast<double>(g.sessions)),
                std::to_string(g.evicted_failed),
                Table::fmt(g.mean_attempts, 2),
                Table::fmt(g.median_time_to_key_ms, 1),
                Table::fmt(g.bytes_per_session, 1),
                std::to_string(g.failure_dumps.size()) + "+" +
                    std::to_string(g.failures_suppressed)});
  }
  const std::string fault_caption =
      "Gateway under frame loss: " + std::to_string(fault_sessions) +
      " sessions/rate, failure dumps regenerated post-run";
  ft.print(fault_caption);
  report.add_table("gateway_faults", fault_caption, ft);

  std::printf("\nall sessions established on the lossless link: %s\n",
              all_established ? "yes" : "NO");
  report.add_note("lossless_all_established", all_established ? "yes" : "NO");
  report.write();
  return all_established ? 0 : 1;
}
