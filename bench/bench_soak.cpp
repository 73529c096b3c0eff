// Long-horizon soak — hours of virtual time through the gateway engine.
//
// The scale sweeps in bench_gateway answer "how fast"; this harness answers
// "does it stay that fast, and does it stay flat": repeated rounds of fresh
// GatewayEngine runs (the engine is one-shot by design) with scheduled
// rekeys and a cycling fault-churn pattern, accumulating >= 1M
// establishments over hours of virtual time at full scale. Three properties
// are gated, not just reported:
//
//   * zero steady-state allocation growth — the binary links the
//     vkey_alloc_hooks counting allocator; after a warm-up cycle (one pass
//     through the full fault pattern, which touches every lazy registration
//     and code path) each round's live-heap-block delta must be EXACTLY
//     zero. A slow per-session leak of a single node fails the gate.
//   * flat gauge watermarks — per-round high watermarks of the gateway
//     session gauges must not drift across steady-state rounds of the same
//     fault phase.
//   * sustained establishment — total establishment rate >= 99.9% across
//     all rounds, fault phases included.
//
// Telemetry: `--telemetry-out` streams delta-encoded samples on the shared
// virtual timeline — a 1 s observer tick inside each engine run plus one
// boundary sample per round, with virtual time accumulating monotonically
// across rounds. The sampled families are the lane-invariant
// telemetry::deterministic_prefixes() set, so the JSONL is byte-identical
// across --threads lane counts (CI diffs 1 vs 4; --telemetry-all widens the
// filter for profiling and voids that contract).
//
// Flags: suite-standard --quick/--json/--threads/--trace-out/
// --telemetry-out/--telemetry-all, plus `--rounds N` / `--sessions N`
// (sessions per round) overrides.
//
// The committed bench/data/BENCH_soak.json snapshot of a full run is the
// baseline tools/vkey_telemetry.py check compares steady-state rates
// against. Virtual-time rates are machine-independent, but not all are
// scale-independent: the checker holds scale-free scalars (allocs/key,
// lossless-phase p99) to tight bands and the queue-depth-bound ones to
// pinned cross-scale bands (see its TOLERANCES table).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/bench_io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/reconciler.h"
#include "protocol/gateway.h"
#include "protocol/wire.h"

using namespace vkey;
using namespace vkey::protocol;

namespace {

// The cycling fault-churn phases: lossless, light loss, heavy loss. One
// full cycle is the warm-up window — it exercises every lazily-initialized
// path (failure dumps included) before the zero-growth gate arms.
constexpr double kDropPattern[] = {0.0, 0.10, 0.25};
constexpr std::size_t kPatternLen = sizeof(kDropPattern) / sizeof(double);

/// Pure per-device probe material, re-seeded per round so no two rounds
/// replay the same noise realizations.
GatewayEngine::MaterialFn make_material(std::uint64_t round_seed) {
  return [round_seed](std::uint64_t device, std::size_t attempt) {
    const std::uint64_t seed = hash_combine64(
        hash_combine64(hash_combine64(0x50a7, round_seed), device), attempt);
    const BitVec kb = random_bits(64, vkey::Rng(seed));
    return std::make_pair(with_flips(kb, 3, vkey::Rng(seed ^ 0x5a5a)), kb);
  };
}

GatewayConfig round_config(std::size_t sessions, std::size_t round,
                           double drop) {
  GatewayConfig cfg;
  cfg.sessions = sessions;
  cfg.max_inflight = 256;
  cfg.arrival_interval_ms = 5.0;
  cfg.reliability.radio.spreading_factor = 7;
  // Deep retry budget (see bench_gateway): keeps per-session failure odds
  // negligible on the lossless phases and low even at 25% drop.
  cfg.reliability.max_session_attempts = 6;
  cfg.reliability.fault.drop_prob = drop;
  cfg.seed = hash_combine64(0x50a9, round);
  return cfg;
}

struct RoundResult {
  double drop = 0.0;
  GatewayReport rep;
  std::int64_t live_growth = 0;  ///< heap blocks leaked by this round
  std::uint64_t allocs = 0;      ///< allocations during the round
  double peak_inflight_gauge = 0.0;
  double peak_queued_gauge = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // Soak-specific overrides, peeled before BenchReport (which exits on
  // unknown arguments).
  std::size_t rounds_override = 0, sessions_override = 0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const bool is_rounds = std::strcmp(argv[i], "--rounds") == 0;
    const bool is_sessions = std::strcmp(argv[i], "--sessions") == 0;
    if ((is_rounds || is_sessions) && i + 1 < argc) {
      const auto v = parse_count(argv[++i]);
      if (!v) {
        std::fprintf(stderr, "%s expects a positive integer\n", argv[i - 1]);
        return 2;
      }
      (is_rounds ? rounds_override : sessions_override) = *v;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchReport report("soak", static_cast<int>(args.size()), args.data());

  // Full: 54 rounds x 20k sessions = 1.08M establishments, ~2 virtual
  // hours. Quick (CI): 6 rounds x 2k = 12k, same phase structure.
  const std::size_t rounds =
      rounds_override > 0 ? rounds_override : report.scaled(54, 6);
  const std::size_t sessions =
      sessions_override > 0 ? sessions_override : report.scaled(20'000, 2'000);
  const std::size_t warmup = std::min(kPatternLen, rounds - 1);

  // The sessions' public syndrome code: 64-bit keys, the default seed.
  const core::SyndromeCode reconciler(64, 11);

  // Everything lazily registered outside the per-round lifecycle is pulled
  // in before the measurement loop so round deltas measure the engine, not
  // first-use initialization. This must cover the RARE paths too: a
  // `reliability.failure.*` counter first registered by a freak
  // triple-drop in steady round 40 is three heap blocks the zero-growth
  // gate would (rightly, but unhelpfully) flag.
  register_gateway_metrics();
  auto& reg = metrics::Registry::global();
  metrics::Counter& soak_rounds = reg.counter("soak.rounds");
  metrics::Counter& soak_established = reg.counter("soak.established");
  metrics::Counter& soak_failed = reg.counter("soak.failed");
  metrics::Counter& soak_rekeys = reg.counter("soak.rekeys");
  metrics::Gauge& soak_round_gauge = reg.gauge("soak.round");
  metrics::Gauge& soak_vhours = reg.gauge("soak.virtual_hours");
  metrics::Gauge& gw_inflight = reg.gauge("gateway.inflight_sessions");
  metrics::Gauge& gw_queued = reg.gauge("gateway.queued_sessions");
  metrics::Gauge& gw_active = reg.gauge("gateway.active_sessions");

  telemetry::SamplerConfig scfg;
  if (!report.telemetry_all()) {
    scfg.include_prefixes = telemetry::deterministic_prefixes();
  }
  scfg.source = "bench_soak";
  telemetry::Sampler sampler(scfg);
  sampler.annotate("rounds", std::to_string(rounds));
  sampler.annotate("sessions_per_round", std::to_string(sessions));
  sampler.annotate("tick_interval_ms",
                   json::format_number(kTickIntervalMs));
  sampler.annotate("quick", report.quick() ? "true" : "false");
  report.set_telemetry(&sampler);
  const bool sampling = !report.telemetry_path().empty();

  // By this point the set-up above (argument vectors, the syndrome code's
  // Bloom tables, the metric registry, the sampler) has allocated, so the
  // interposed allocator (if linked) has certainly reported.
  const bool hooks = alloc_stats::hooks_installed();
  std::printf("allocation hooks: %s\n",
              hooks ? "installed (zero-growth gate armed)" : "ABSENT");

  double vbase_ms = 0.0;  // virtual time accumulated across rounds
  std::vector<RoundResult> results;
  results.reserve(rounds);

  for (std::size_t r = 0; r < rounds; ++r) {
    const double drop = kDropPattern[r % kPatternLen];
    // Per-round watermark window: the session gauges all sit at zero
    // between rounds (every session evicted), so re-arming here isolates
    // this round's peaks.
    gw_inflight.reset_watermarks();
    gw_queued.reset_watermarks();
    gw_active.reset_watermarks();

    RoundResult rr;
    rr.drop = drop;
    const alloc_stats::PhaseScope phase;
    {
      GatewayEngine engine(round_config(sessions, r, drop), reconciler,
                           make_material(hash_combine64(0xbeef, r)));
      if (sampling) {
        engine.set_tick([&sampler, vbase_ms](double now_ms) {
          sampler.sample(vbase_ms + now_ms);
        });
      }
      rr.rep = engine.run();
    }  // engine destroyed: all per-round heap state must be gone
    rr.live_growth = phase.live_delta();
    rr.allocs = phase.delta().allocations;
    rr.peak_inflight_gauge = gw_inflight.high_watermark();
    rr.peak_queued_gauge = gw_queued.high_watermark();

    vbase_ms += rr.rep.makespan_ms;
    soak_rounds.add(1);
    soak_established.add(rr.rep.established);
    soak_failed.add(rr.rep.failed);
    soak_rekeys.add(rr.rep.rekeys);
    soak_round_gauge.set(static_cast<double>(r));
    soak_vhours.set(vbase_ms / 3'600'000.0);
    if (sampling) sampler.sample(vbase_ms);  // round-boundary sample

    std::printf(
        "round %3zu/%zu  drop %4.0f%%  established %zu/%zu  "
        "keys/s %6.1f  p99 ttk %7.1f ms  heap growth %+lld blocks%s\n",
        r + 1, rounds, drop * 100.0, rr.rep.established, rr.rep.sessions,
        rr.rep.keys_per_vsecond, rr.rep.p99_time_to_key_ms,
        static_cast<long long>(rr.live_growth),
        r < warmup ? "  [warmup]" : "");
    results.push_back(rr);
  }

  // ------------------------------------------------------------- the gates
  bool ok = true;

  // Gate 1: zero steady-state allocation growth, each round exactly.
  std::int64_t steady_growth = 0;
  if (hooks) {
    for (std::size_t r = warmup; r < results.size(); ++r) {
      steady_growth += results[r].live_growth;
      if (results[r].live_growth != 0) {
        std::printf("GATE: round %zu leaked %+lld heap blocks\n", r,
                    static_cast<long long>(results[r].live_growth));
        ok = false;
      }
    }
  }

  // Gate 2: flat watermarks — within each fault phase, steady-state rounds
  // must peak at the same level (small absolute slack for queue jitter
  // between seeds; drift across rounds is what the gate exists to catch).
  std::map<double, std::pair<double, double>> queue_peaks;  // drop -> min,max
  for (std::size_t r = warmup; r < results.size(); ++r) {
    const auto [it, fresh] = queue_peaks.try_emplace(
        results[r].drop, results[r].peak_queued_gauge,
        results[r].peak_queued_gauge);
    if (!fresh) {
      it->second.first = std::min(it->second.first,
                                  results[r].peak_queued_gauge);
      it->second.second = std::max(it->second.second,
                                   results[r].peak_queued_gauge);
    }
  }
  for (const auto& [drop, mm] : queue_peaks) {
    if (mm.second > 1.5 * mm.first + 64.0) {
      std::printf("GATE: queue watermark drift at drop %.0f%%: %g -> %g\n",
                  drop * 100.0, mm.first, mm.second);
      ok = false;
    }
  }

  // Gate 3: sustained establishment across all phases.
  std::size_t total_sessions = 0, total_established = 0;
  std::uint64_t total_rekeys = 0;
  for (const auto& rr : results) {
    total_sessions += rr.rep.sessions;
    total_established += rr.rep.established;
    total_rekeys += rr.rep.rekeys;
  }
  const double established_rate = static_cast<double>(total_established) /
                                  static_cast<double>(total_sessions);
  if (established_rate < 0.999) {
    std::printf("GATE: establishment rate %.4f below 0.999\n",
                established_rate);
    ok = false;
  }

  // ---------------------------------------------------------------- report
  Table pt({"drop rate", "rounds", "established", "keys/s [virt]",
            "p99 time-to-key [virt ms]", "peak inflight", "peak queue",
            "heap growth [blocks]"});
  for (std::size_t p = 0; p < kPatternLen; ++p) {
    const double drop = kDropPattern[p];
    std::size_t n = 0, sess = 0, est = 0;
    double keys = 0.0, p99 = 0.0, inflight = 0.0, queued = 0.0;
    std::int64_t growth = 0;
    for (std::size_t r = warmup; r < results.size(); ++r) {
      if (results[r].drop != drop) continue;
      ++n;
      sess += results[r].rep.sessions;
      est += results[r].rep.established;
      keys += results[r].rep.keys_per_vsecond;
      p99 = std::max(p99, results[r].rep.p99_time_to_key_ms);
      inflight = std::max(inflight, results[r].peak_inflight_gauge);
      queued = std::max(queued, results[r].peak_queued_gauge);
      growth += results[r].live_growth;
    }
    if (n == 0) continue;
    pt.add_row({Table::pct(drop), std::to_string(n),
                Table::pct(static_cast<double>(est) /
                           static_cast<double>(sess)),
                Table::fmt(keys / static_cast<double>(n), 1),
                Table::fmt(p99, 1), Table::fmt(inflight, 0),
                Table::fmt(queued, 0),
                hooks ? std::to_string(growth) : std::string("n/a")});
  }
  const std::string phase_caption =
      "Soak steady state by fault phase: " + std::to_string(rounds) +
      " rounds x " + std::to_string(sessions) +
      " sessions, rekeys on, warm-up excluded";
  pt.print(phase_caption);
  report.add_table("soak_phases", phase_caption, pt);

  // Steady-state aggregates — these, as scalars, are what
  // tools/vkey_telemetry.py --check gates against the committed baseline.
  std::size_t steady_sessions = 0, steady_established = 0;
  std::uint64_t steady_allocs = 0;
  double steady_keys = 0.0, steady_p99 = 0.0;
  // The lossless-phase p99 is the contention-free latency floor — unlike
  // the overall p99 (dominated by queue depth, which scales with
  // sessions/round) it is comparable across --quick and full runs, so the
  // regression checker can hold it to a tight band. -1 when the steady
  // window happens to contain no lossless round (custom --rounds shapes).
  double steady_p99_lossless = -1.0;
  for (std::size_t r = warmup; r < results.size(); ++r) {
    steady_sessions += results[r].rep.sessions;
    steady_established += results[r].rep.established;
    steady_allocs += results[r].allocs;
    steady_keys += results[r].rep.keys_per_vsecond;
    steady_p99 = std::max(steady_p99, results[r].rep.p99_time_to_key_ms);
    if (results[r].drop == 0.0) {
      steady_p99_lossless =
          std::max(steady_p99_lossless, results[r].rep.p99_time_to_key_ms);
    }
  }
  const double steady_rounds = static_cast<double>(results.size() - warmup);
  const double allocs_per_key =
      hooks && steady_established > 0
          ? static_cast<double>(steady_allocs) /
                static_cast<double>(steady_established)
          : -1.0;

  Table st({"establishments", "virtual hours", "keys/s [virt]",
            "p99 time-to-key [virt ms]", "allocs / key",
            "heap growth [blocks]", "telemetry samples"});
  st.add_row({std::to_string(total_established),
              Table::fmt(vbase_ms / 3'600'000.0, 2),
              Table::fmt(steady_keys / steady_rounds, 1),
              Table::fmt(steady_p99, 1),
              hooks ? Table::fmt(allocs_per_key, 1) : std::string("n/a"),
              hooks ? std::to_string(steady_growth) : std::string("n/a"),
              std::to_string(sampler.samples_taken())});
  const std::string steady_caption =
      "Soak totals (steady-state rates, warm-up excluded)";
  st.print(steady_caption);
  report.add_table("soak_steady", steady_caption, st);

  report.add_scalar("establishments", static_cast<double>(total_established));
  report.add_scalar("virtual_hours", vbase_ms / 3'600'000.0);
  report.add_scalar("established_rate", established_rate);
  report.add_scalar("rekeys", static_cast<double>(total_rekeys));
  report.add_scalar("steady_keys_per_vsecond", steady_keys / steady_rounds);
  report.add_scalar("steady_p99_ttk_ms", steady_p99);
  report.add_scalar("steady_p99_ttk_lossless_ms", steady_p99_lossless);
  report.add_scalar("steady_allocs_per_key", allocs_per_key);
  report.add_scalar("steady_live_growth_blocks",
                    hooks ? static_cast<double>(steady_growth) : -1.0);
  report.add_note("alloc_hooks", hooks ? "installed" : "absent");
  report.add_note("gates_passed", ok ? "yes" : "NO");

  std::printf("\nsoak gates (zero growth, flat watermarks, >=99.9%% "
              "establishment): %s\n",
              ok ? "PASS" : "FAIL");
  report.write();
  return ok ? 0 : 1;
}
