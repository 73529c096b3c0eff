// bench_e2e — what one key costs on this host, probe to confirmed epoch.
//
// Runs real material through the stack's public functions:
//
//   TraceGenerator -> extract_streams/make_samples (arRSSI + Bob's quantizer)
//     -> PredictorQuantizer::infer -> run_reliable_key_agreement or
//        GatewayEngine::run -> KeySchedule
//
// and reports what a user of the system sees (set-up time, keys per
// CPU-second and per second, allocations, memory, and the behaviour guards)
// on three workloads:
//
//   single_link      closed loop, one session at a time over a lossless SF12
//                    link; each session is a vehicle pair whose attempts
//                    probe the next 16 rounds of its own drive, extract,
//                    predict and agree; every key then builds both
//                    KeySchedule roles, confirms its epoch over the wire and
//                    rekeys twice.
//   gateway_predict  one GatewayEngine per round, 1500 sessions arriving
//                    every 20 virtual ms over lossless SF7; attempt 0 is
//                    predicted live by one infer_batch per sim batch and
//                    recovery attempts by infer(), on a pre-probed window
//                    pool, as vkey_sim's gateway mode drives a predictor.
//   gateway_lossy    one GatewayEngine per round, 4000 sessions every 30
//                    virtual ms, 15% drop plus 3% corrupt/dup/reorder; the
//                    pool's predicted bits are computed in set-up, so the
//                    measured phase is pure protocol.
//
// Set-up (trained predictor and reconciler, the window pool) is identical
// for every seed; `--seed` drives only the workload inputs: the single_link
// drive, the device -> window map, and the fault and ARQ streams. A run
// keeps starting rounds until `--seconds` (default 0) have passed, and
// always runs the workload's fixed round count first: the behaviour metrics
// are computed over those rounds, so they repeat exactly for a seed.
// `--trace 1` runs a short untraced phase and then the traced phase, and
// reports the per-layer ledger (ledger.h) instead of the end-to-end metrics.
//
// Flags: --workload NAME  --seed N  --seconds S  --trace 0|1  --check-lanes
// plus the suite-standard --quick / --threads N / --trace-out PATH /
// --json PATH of BenchReport. Output: one `name value unit` line per
// metric, and a last line holding one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits non-zero when a
// correctness gate fails. No gate prints key bytes.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "common/bench_io.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/trace.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "ledger.h"
#include "protocol/gateway.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/unreliable_channel.h"

using namespace vkey;
namespace proto = vkey::protocol;
using e2e::Layer;
using e2e::Ledger;

namespace {

// ------------------------------------------------------------------ sizing

constexpr std::size_t kDefaultLanes = 2;
/// One 64-value key window: the extractor keeps 4 arRSSI values per round.
constexpr std::size_t kProbeRounds = 16;
/// Predictor and reconciler training budgets. Smaller budgets cost KAR and
/// reconciliation success well before they save set-up time.
constexpr std::size_t kTrainRounds = 600;
constexpr std::size_t kTrainStride = 4;
constexpr std::size_t kTrainEpochs = 5;
constexpr std::size_t kReconcilerSamples = 3000;
constexpr std::size_t kReconcilerEpochs = 25;
/// setup_s is the median of this many full set-ups in one run.
constexpr std::size_t kSetupRepeats = 3;
/// gateway_predict's fixed rounds draw each window ~16 times (6 of them as
/// first attempts). The pool is shared set-up, probed from one fixed drive:
/// consecutive windows overlap (one probe round apart), so a seed-dependent
/// pool would hold only ~125 independent windows and move every behaviour
/// metric with the seed.
constexpr std::size_t kPoolWindows = 2000;
constexpr std::uint64_t kTrainDriveSeed = 1;
constexpr std::uint64_t kPoolDriveSeed = 2;
constexpr std::size_t kSessionAttempts = 6;
constexpr std::size_t kInflightSlots = 256;
constexpr double kRekeyIntervalMs = 10'000.0;
constexpr std::size_t kRekeys = 2;
/// Recorded attempt inputs the traced run replays through the reconciler.
constexpr std::size_t kReplayInputs = 512;
/// Share of a traced run spent untraced: its host-time metrics and the
/// reference for the tracing overhead.
constexpr double kUntracedShare = 0.5;

struct WorkloadSpec {
  const char* name;
  std::size_t sessions_per_round;
  /// Rounds always run; the behaviour metrics cover exactly these.
  std::size_t fixed_rounds;
  double arrival_ms;  ///< gateways: virtual inter-arrival spacing
  proto::FaultConfig fault;
  bool gateway;
  bool live_predict;  ///< the measured phase runs infer()
};

proto::FaultConfig lossy_faults() {
  proto::FaultConfig f;
  f.drop_prob = 0.15;
  f.corrupt_prob = 0.03;
  f.dup_prob = 0.03;
  f.reorder_prob = 0.03;
  return f;
}

const WorkloadSpec kWorkloads[] = {
    {"single_link", 50, 10, 0.0, {}, false, true},
    {"gateway_predict", 1500, 8, 20.0, {}, true, true},
    {"gateway_lossy", 4000, 8, 30.0, lossy_faults(), true, false},
};

// --------------------------------------------------------------- utilities

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t allocations() { return alloc_stats::totals().allocations; }

channel::TraceConfig drive(std::uint64_t seed) {
  channel::TraceConfig t;
  t.scenario = channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  t.seed = seed;
  return t;
}

// --------------------------------------------------------- shared set-up

/// One pre-probed key window of the gateway pool.
struct Window {
  nn::Vec seq;   ///< Alice's normalized arRSSI window (predictor input)
  BitVec bob;    ///< Bob's quantized bits
  BitVec alice;  ///< Alice's predicted bits (gateway_lossy: from set-up)
};

struct Setup {
  std::optional<core::PredictorQuantizer> predictor;
  std::optional<core::AutoencoderReconciler> reconciler;
  std::vector<Window> pool;
};

/// Probe `windows` overlapping windows (one per probe round) of a drive.
std::vector<Window> probe_pool(std::size_t windows, std::uint64_t seed,
                               Ledger& ledger) {
  const core::DatasetConfig ds;
  channel::TraceGenerator gen(drive(seed));
  const std::size_t total = windows + kProbeRounds - 1;
  std::vector<channel::ProbeRound> rounds;
  rounds.reserve(total);
  while (rounds.size() < total) {
    const Ledger::Span span(ledger, Layer::kProbe);
    for (auto& r : gen.generate(std::min(kProbeRounds, total - rounds.size())))
      rounds.push_back(std::move(r));
  }
  std::vector<core::TrainingSample> samples;
  {
    const Ledger::Span span(ledger, Layer::kExtract, windows);
    core::DatasetConfig cut = ds;
    cut.stride = ds.reciprocal_windows;  // window starts one round apart
    samples = core::make_samples(
        core::extract_streams(rounds, ds.extractor, ds.reciprocal_windows),
        cut);
  }
  VKEY_REQUIRE(samples.size() == windows, "pool probing produced a short pool");
  std::vector<Window> pool(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    pool[i].seq = std::move(samples[i].alice_seq);
    pool[i].bob = std::move(samples[i].bob_bits);
  }
  return pool;
}

/// Train both models and build the workload's window pool. Independent of
/// the seed: every repetition does the same work and yields the same state.
/// Predictor training is single-threaded, so it takes one lane while the
/// other trains the reconciler (bit-identical for any lane count). The pool
/// is probed after both, so its probe and extract spans are the only work
/// running and count exactly their own allocations.
void set_up(Setup& s, const WorkloadSpec& w, bool quick, Ledger& ledger) {
  std::array<double, 2> lane_s{};
  parallel::parallel_for(
      2,
      [&](std::size_t lane) {
        const double t0 = e2e::wall_ms();
        if (lane == 0) {
          const core::DatasetConfig ds;
          channel::TraceGenerator gen(drive(kTrainDriveSeed));
          core::DatasetConfig train = ds;
          train.stride = kTrainStride;
          const auto samples = core::make_samples(
              core::extract_streams(gen.generate(kTrainRounds), ds.extractor,
                                    ds.reciprocal_windows),
              train);
          core::PredictorConfig pcfg;
          pcfg.hidden = 32;
          s.predictor.emplace(pcfg);
          s.predictor->train(samples, kTrainEpochs);
        } else {
          core::ReconcilerConfig rcfg;
          rcfg.key_bits = 64;
          rcfg.decoder_units = 64;
          rcfg.threads = 1;
          s.reconciler.emplace(rcfg);
          s.reconciler->train(kReconcilerSamples, kReconcilerEpochs);
        }
        lane_s[lane] = (e2e::wall_ms() - t0) / 1e3;
      },
      2);
  const double t1 = e2e::wall_ms();
  s.pool.clear();
  if (w.gateway) {
    s.pool = probe_pool(quick ? kPoolWindows / 10 : kPoolWindows,
                        kPoolDriveSeed, ledger);
  }
  if (w.gateway && !w.live_predict) {
    const core::PredictorQuantizer& predictor = *s.predictor;
    parallel::parallel_for(s.pool.size(), [&](std::size_t i) {
      const Ledger::Span span(ledger, Layer::kPredict);
      s.pool[i].alice = predictor.infer(s.pool[i].seq).bits;
    });
  }
  std::fprintf(stderr,
               "bench_e2e: set-up: predictor %.2f s | reconciler %.2f s, "
               "then pool of %zu windows %.2f s\n",
               lane_s[0], lane_s[1], s.pool.size(),
               (e2e::wall_ms() - t1) / 1e3);
}

// ------------------------------------------------------------ round results

struct ReplayInput {
  nn::Vec seq;
  BitVec alice;
  BitVec bob;
};

struct RoundStats {
  std::size_t sessions = 0;
  std::size_t established = 0;
  std::size_t failed = 0;  ///< sessions that failed a correctness gate
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t allocs = 0;
  double kar_sum = 0.0;
  std::size_t kar_n = 0;
  std::uint64_t wire_bytes = 0;  ///< every session's frames, failed included
  std::size_t attempts = 0;
  std::vector<double> virt_ttk_ms;  ///< established sessions
  std::vector<double> key_ms;       ///< host latency samples
  std::vector<double> node_ms;      ///< key_ms minus TraceGenerator time
  std::size_t peak_queued = 0;
  std::size_t rekeys = 0;
  double predict_cpu_ms = 0.0;  ///< traced gateways: predict spans
  std::uint64_t infer_calls = 0;  ///< gateways: per-attempt infer() calls
  std::uint64_t predict_batch_allocs = 0;  ///< gateways: infer_batch, exact
  std::optional<proto::GatewayReport> report;
};

class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed, std::size_t scale_div,
           Setup& setup, Ledger& ledger)
      : spec_(spec),
        seed_(seed),
        sessions_(spec.sessions_per_round / scale_div),
        setup_(setup),
        ledger_(ledger) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Run measured round `round` on `lanes` pool lanes.
  virtual RoundStats run_round(std::size_t round, std::size_t lanes) = 0;
  /// A small unmeasured round: lazy registrations, first-touch pages.
  virtual void warm_up() = 0;

  void set_recording(bool on) { recording_ = on; }
  /// Attempt inputs recorded while recording (for the layer replays).
  const std::vector<ReplayInput>& replay() const { return replay_; }
  /// Gateways: (key, device) of the last round's first established
  /// sessions, for the key-schedule replay. single_link times its key
  /// schedules inline and records none.
  const std::vector<std::pair<BitVec, std::uint64_t>>& keys() const {
    return keys_;
  }

 protected:
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::size_t sessions_;
  Setup& setup_;
  Ledger& ledger_;
  bool recording_ = false;
  std::vector<ReplayInput> replay_;
  std::vector<std::pair<BitVec, std::uint64_t>> keys_;
};

// ------------------------------------------------------------- single_link

const std::vector<std::uint8_t>& gate_payload() {
  static const std::vector<std::uint8_t> p = {
      'v', 'k', 'e', 'y', ' ', 'e', '2', 'e', ' ', 'g', 'a', 't', 'e',
      ' ', 'f', 'r', 'a', 'm', 'e', ' ', '0', '1', '2', '3', '4', '5'};
  return p;
}

/// A frame sealed by `from` must open under `to` to the same plaintext.
bool seal_opens(proto::KeySchedule& from, proto::KeySchedule& to,
                std::uint64_t nonce, double now_ms) {
  const proto::Message frame = from.seal(nonce, gate_payload());
  const auto opened = to.open(frame, now_ms);
  return opened.has_value() && *opened == gate_payload();
}

class SingleLink final : public Workload {
 public:
  using Workload::Workload;

  RoundStats run_round(std::size_t round, std::size_t) override {
    return run_sessions(round * sessions_, sessions_);
  }

  void warm_up() override { run_sessions(std::uint64_t{1} << 40, 4); }

 private:
  RoundStats run_sessions(std::uint64_t first, std::size_t count) {
    RoundStats rs;
    rs.virt_ttk_ms.reserve(count);
    rs.key_ms.reserve(count);
    rs.node_ms.reserve(count);
    const double w0 = e2e::wall_ms();
    const double c0 = e2e::process_cpu_ms();
    const std::uint64_t a0 = allocations();
    for (std::size_t i = 0; i < count; ++i) run_session(first + i, rs);
    rs.allocs = allocations() - a0;
    rs.cpu_ms = e2e::process_cpu_ms() - c0;
    rs.wall_ms = e2e::wall_ms() - w0;
    rs.sessions = count;
    return rs;
  }

  /// One session, first probe to confirmed epoch, plus the lifecycle gates.
  /// Every session drives its own vehicle pair (a drive seeded by the
  /// session), so its inputs do not depend on how many attempts earlier
  /// sessions needed.
  void run_session(std::uint64_t s, RoundStats& rs) {
    const core::DatasetConfig ds;
    proto::ReliabilityConfig rcfg;
    rcfg.max_session_attempts = kSessionAttempts;
    rcfg.fault = spec_.fault;
    rcfg.fault.seed = hash_combine64(hash_combine64(seed_, 0x6a7e), s);
    rcfg.arq.seed = hash_combine64(hash_combine64(seed_, 0xa49), s);
    rcfg.base_session_id = 1 + (s << 4);

    std::optional<channel::TraceGenerator> gen;
    double probe_ms = 0.0;
    const double t0 = e2e::thread_cpu_ms();
    proto::AgreementReport rep;
    {
      const Ledger::Span agree(ledger_, Layer::kAgree);
      proto::PublicChannel air;
      rep = proto::run_reliable_key_agreement(
          air, *setup_.reconciler, rcfg, [&](std::size_t attempt) {
            std::vector<channel::ProbeRound> rounds;
            {
              const Ledger::Span span(ledger_, Layer::kProbe);
              const double p0 = e2e::thread_cpu_ms();
              if (!gen) gen.emplace(drive(hash_combine64(seed_ ^ 0x511e, s)));
              rounds = gen->generate(kProbeRounds);
              probe_ms += e2e::thread_cpu_ms() - p0;
            }
            std::vector<core::TrainingSample> samples;
            {
              const Ledger::Span span(ledger_, Layer::kExtract);
              samples = core::make_samples(
                  core::extract_streams(rounds, ds.extractor,
                                        ds.reciprocal_windows),
                  ds);
            }
            VKEY_REQUIRE(samples.size() == 1, "a probe must yield one window");
            core::PredictorQuantizer::Output out;
            {
              const Ledger::Span span(ledger_, Layer::kPredict);
              out = setup_.predictor->infer(samples[0].alice_seq);
            }
            if (attempt == 0) {
              rs.kar_sum += out.bits.agreement(samples[0].bob_bits);
              ++rs.kar_n;
            }
            if (recording_ && replay_.size() < kReplayInputs) {
              const alloc_stats::PauseScope quiet;
              replay_.push_back(
                  {samples[0].alice_seq, out.bits, samples[0].bob_bits});
            }
            return std::make_pair(std::move(out.bits),
                                  std::move(samples[0].bob_bits));
          });
    }
    rs.attempts += rep.attempts;
    rs.wire_bytes += rep.link.bytes_sent;
    if (!rep.established) return;

    const Ledger::Span span(ledger_, Layer::kKeySchedule);
    const std::uint64_t sid = rep.attempt_log.back().session_id;
    proto::KeySchedule initiator(rep.key, sid,
                                 proto::KeySchedule::Role::kInitiator);
    proto::KeySchedule responder(rep.key, sid,
                                 proto::KeySchedule::Role::kResponder);
    proto::SimClock clock;
    proto::PublicChannel air;
    proto::UnreliableChannel link(clock, air, rcfg.fault, rcfg.radio);
    const proto::ConfirmReport confirm =
        proto::run_key_confirmation(clock, link, initiator, responder);
    const double key_ms = e2e::thread_cpu_ms() - t0;

    bool ok = confirm.confirmed && seal_opens(initiator, responder, 1, 0.0) &&
              seal_opens(responder, initiator, 2, 0.0);
    for (std::size_t e = 1; e <= kRekeys; ++e) {
      const double now = static_cast<double>(e) * kRekeyIntervalMs;
      initiator.rekey(now);
      responder.rekey(now);
      ok = ok && initiator.epoch() == e && responder.epoch() == e &&
           seal_opens(initiator, responder, 2 * e + 1, now) &&
           seal_opens(responder, initiator, 2 * e + 2, now);
    }
    ++rs.established;
    rs.rekeys += kRekeys;
    if (!ok) ++rs.failed;
    rs.wire_bytes += link.stats().bytes_sent;
    rs.virt_ttk_ms.push_back(rep.time_to_establish_ms + confirm.duration_ms);
    rs.key_ms.push_back(key_ms);
    rs.node_ms.push_back(key_ms - probe_ms);
  }
};

// ---------------------------------------------------------------- gateways

class Gateway final : public Workload {
 public:
  using Workload::Workload;

  RoundStats run_round(std::size_t round, std::size_t lanes) override {
    return run(round, sessions_, lanes);
  }

  void warm_up() override {
    run(std::uint64_t{1} << 40, kInflightSlots, parallel::default_threads());
  }

 private:
  proto::GatewayConfig config(std::uint64_t round, std::size_t sessions,
                              std::size_t lanes) const {
    proto::GatewayConfig cfg;
    cfg.sessions = sessions;
    cfg.max_inflight = kInflightSlots;
    cfg.arrival_interval_ms = spec_.arrival_ms;
    cfg.rekey_interval_ms = kRekeyIntervalMs;
    cfg.max_rekeys = kRekeys;
    cfg.threads = lanes;
    cfg.reliability.radio.spreading_factor = 7;
    cfg.reliability.max_session_attempts = kSessionAttempts;
    cfg.reliability.fault = spec_.fault;
    cfg.seed = hash_combine64(hash_combine64(seed_, 0x6a7e), round);
    return cfg;
  }

  RoundStats run(std::uint64_t round, std::size_t sessions,
                 std::size_t lanes) {
    const std::uint64_t map_seed =
        hash_combine64(hash_combine64(seed_, 0x3a9), round);
    kar_.assign(sessions, 0.0);
    batch_start_ms_.clear();
    batch_allocs_ = 0;
    infer_calls_ = 0;
    if (recording_) replay_.assign(std::min(sessions, kReplayInputs), {});

    static_assert(kSessionAttempts <= 8, "window map packs the attempt in 3 bits");
    const auto window = [&](std::uint64_t device,
                            std::size_t attempt) -> const Window& {
      return setup_.pool[hash_combine64(map_seed, device * 8 + attempt) %
                         setup_.pool.size()];
    };
    // Attempt-0 bookkeeping. Post-mortem re-simulations ask MaterialFn for
    // attempt 0 again and get the same bits, so recording twice is harmless.
    const auto first_attempt = [&](std::uint64_t device, const Window& w,
                                   const BitVec& alice) {
      kar_[device] = alice.agreement(w.bob);
      if (recording_ && device < replay_.size()) {
        const alloc_stats::PauseScope quiet;
        replay_[device] = {w.seq, alice, w.bob};
      }
    };
    const core::PredictorQuantizer& predictor = *setup_.predictor;
    // Recovery attempts (and post-mortems) go through the per-attempt source.
    auto material = [&](std::uint64_t device, std::size_t attempt) {
      const Window& w = window(device, attempt);
      BitVec alice;
      if (spec_.live_predict) {
        infer_calls_.fetch_add(1, std::memory_order_relaxed);
        const Ledger::Span span(ledger_, Layer::kPredict);
        alice = predictor.infer(w.seq).bits;
      } else {
        alice = w.alice;
      }
      if (attempt == 0) first_attempt(device, w, alice);
      return std::make_pair(std::move(alice), w.bob);
    };
    // Attempt 0 goes through the batched prefetch, one call per sim batch on
    // the lifecycle thread before the pool fans out, as vkey_sim's gateway
    // mode drives a predictor: gateway_predict runs one blocked infer_batch
    // per batch; gateway_lossy hands over its set-up predictions through the
    // same hook, so both gateways mark their batches alike for the latency
    // below. Only this thread works while it runs, so its allocation count
    // is exact.
    auto prefetch = [&](std::uint64_t first, std::size_t count) {
      batch_start_ms_.push_back(e2e::wall_ms());
      std::vector<BitVec> alice(count);
      if (spec_.live_predict) {
        std::vector<nn::Vec> seqs;
        seqs.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          seqs.push_back(window(first + i, 0).seq);
        }
        const std::uint64_t a0 = allocations();
        std::vector<core::PredictorQuantizer::Output> outs;
        {
          const Ledger::Span span(ledger_, Layer::kPredict, count);
          outs = predictor.infer_batch(seqs);
        }
        batch_allocs_ += allocations() - a0;
        for (std::size_t i = 0; i < count; ++i) {
          alice[i] = std::move(outs[i].bits);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          alice[i] = window(first + i, 0).alice;
        }
      }
      std::vector<std::pair<BitVec, BitVec>> out(count);
      for (std::size_t i = 0; i < count; ++i) {
        const Window& w = window(first + i, 0);
        first_attempt(first + i, w, alice[i]);
        out[i] = {std::move(alice[i]), w.bob};
      }
      return out;
    };

    RoundStats rs;
    proto::GatewayEngine engine(config(round, sessions, lanes),
                                *setup_.reconciler, material);
    engine.set_batch_material(prefetch);
    const e2e::LayerTotals p0 = ledger_.totals(Layer::kPredict);
    const double w0 = e2e::wall_ms();
    const double c0 = e2e::process_cpu_ms();
    const std::uint64_t a0 = allocations();
    const proto::GatewayReport rep = engine.run();
    rs.allocs = allocations() - a0;
    rs.cpu_ms = e2e::process_cpu_ms() - c0;
    rs.wall_ms = e2e::wall_ms() - w0;
    const e2e::LayerTotals p1 = ledger_.totals(Layer::kPredict);
    rs.predict_cpu_ms = p1.self_cpu_ms - p0.self_cpu_ms;
    rs.infer_calls = infer_calls_.load(std::memory_order_relaxed);
    rs.predict_batch_allocs = batch_allocs_;

    rs.sessions = rep.sessions;
    rs.established = rep.established;
    rs.rekeys = rep.rekeys;
    rs.peak_queued = rep.peak_queued;
    const auto& outcomes = engine.outcomes();
    keys_.clear();
    for (std::uint64_t d = 0; d < sessions; ++d) {
      rs.kar_sum += kar_[d];
      rs.wire_bytes += outcomes[d].wire_bytes;
      rs.attempts += outcomes[d].attempts;
      if (!outcomes[d].established) continue;
      if (outcomes[d].key.size() != 128) ++rs.failed;
      rs.virt_ttk_ms.push_back(engine.registry().record(d).time_to_key_ms());
      if (keys_.size() < kReplayInputs) keys_.emplace_back(outcomes[d].key, d);
    }
    rs.kar_n = sessions;
    // Every confirmed session rekeys max_rekeys times before idling out.
    if (rep.rekeys != kRekeys * rep.established) rs.failed += 1;

    // Host latency: the engine settles sessions a sim batch at a time, so a
    // session's key is ready when its batch is, one prefetch to the next.
    // The round's last batch is followed by the drain, not by a batch.
    for (std::size_t k = 0; k + 1 < batch_start_ms_.size(); ++k) {
      const double ms = batch_start_ms_[k + 1] - batch_start_ms_[k];
      rs.key_ms.push_back(ms);
      rs.node_ms.push_back(ms);  // no TraceGenerator call in this phase
    }
    rs.report = rep;
    return rs;
  }

  std::vector<double> kar_;
  std::vector<double> batch_start_ms_;
  std::uint64_t batch_allocs_ = 0;
  std::atomic<std::uint64_t> infer_calls_{0};
};

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The correctness gates. Each prints pass/FAIL, never key bytes.
class Gates {
 public:
  void check(const char* name, bool ok) {
    std::printf("gate %-34s %s\n", name, ok ? "pass" : "FAIL");
    ok_ = ok_ && ok;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Lane-invariant fields of a gateway report (DESIGN.md §9 contract).
bool same_virtual_report(const proto::GatewayReport& a,
                         const proto::GatewayReport& b) {
  return a.sessions == b.sessions && a.established == b.established &&
         a.failed == b.failed && a.evicted_idle == b.evicted_idle &&
         a.evicted_failed == b.evicted_failed && a.rekeys == b.rekeys &&
         a.peak_inflight == b.peak_inflight &&
         a.peak_queued == b.peak_queued && a.makespan_ms == b.makespan_ms &&
         a.establish_span_ms == b.establish_span_ms &&
         a.keys_per_vsecond == b.keys_per_vsecond &&
         a.median_time_to_key_ms == b.median_time_to_key_ms &&
         a.p95_time_to_key_ms == b.p95_time_to_key_ms &&
         a.p99_time_to_key_ms == b.p99_time_to_key_ms &&
         a.mean_queue_wait_ms == b.mean_queue_wait_ms &&
         a.mean_attempts == b.mean_attempts &&
         a.bytes_per_session == b.bytes_per_session &&
         a.failure_dumps == b.failure_dumps &&
         a.failures_suppressed == b.failures_suppressed;
}

/// Every metrics-registry counter, by name.
using Counters = std::map<std::string, double>;

Counters read_counters() {
  Counters c;
  const json::Value snap = metrics::Registry::global().snapshot();
  for (const auto& [name, v] : snap.at("counters").as_object()) {
    c[name] = v.as_number();
  }
  return c;
}

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// The traced part of a traced run: where it starts and what the ledger,
/// the counters and the clocks read at its edges.
struct TracedPhase {
  std::size_t first_round = 0;
  std::array<e2e::LayerTotals, kLayers> ledger_start{};
  Counters counters_start;
  Counters counters_end;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;

  /// How far counter `name` moved over the phase.
  double moved(const std::string& name) const {
    const auto end = counters_end.find(name);
    const auto start = counters_start.find(name);
    return (end == counters_end.end() ? 0.0 : end->second) -
           (start == counters_start.end() ? 0.0 : start->second);
  }
  /// Summed movement of every counter under `prefix`.
  double moved_prefix(const std::string& prefix) const {
    double sum = 0.0;
    for (const auto& [name, v] : counters_end) {
      if (name.rfind(prefix, 0) == 0) sum += moved(name);
    }
    return sum;
  }
};

/// Layer totals accumulated since `from`.
e2e::LayerTotals since(const Ledger& ledger, Layer layer,
                       const e2e::LayerTotals& from) {
  const e2e::LayerTotals now = ledger.totals(layer);
  return {now.calls - from.calls, now.self_cpu_ms - from.self_cpu_ms,
          now.self_allocs - from.self_allocs};
}

double per_call_us(const e2e::LayerTotals& t) {
  return ratio(t.self_cpu_ms * 1e3, static_cast<double>(t.calls));
}

double allocs_per_call(const e2e::LayerTotals& t) {
  return ratio(static_cast<double>(t.self_allocs),
               static_cast<double>(t.calls));
}

std::vector<Metric> end_to_end(const WorkloadSpec& spec,
                               const std::vector<RoundStats>& rounds,
                               const std::vector<double>& setup_s) {
  // Behaviour metrics cover the fixed rounds only, so they repeat for a
  // seed whatever the host speed. Host speed itself drifts too far on a
  // shared host to hold a 10% bound; the traced run reports it.
  const std::size_t fixed = std::min(rounds.size(), spec.fixed_rounds);
  double sessions = 0.0, keys = 0.0, kar = 0.0, kar_n = 0.0, allocs = 0.0,
         bytes = 0.0;
  std::vector<double> ttk;
  for (std::size_t r = 0; r < fixed; ++r) {
    const RoundStats& rs = rounds[r];
    sessions += static_cast<double>(rs.sessions);
    keys += static_cast<double>(rs.established);
    kar += rs.kar_sum;
    kar_n += static_cast<double>(rs.kar_n);
    allocs += static_cast<double>(rs.allocs);
    bytes += static_cast<double>(rs.wire_bytes);
    ttk.insert(ttk.end(), rs.virt_ttk_ms.begin(), rs.virt_ttk_ms.end());
  }
  return {
      {"setup_s", median(setup_s), "s"},
      {"allocs_per_key", ratio(allocs, keys), "allocs/key"},
      {"established_frac", ratio(keys, sessions), "fraction"},
      {"kar_pre", ratio(kar, kar_n), "fraction"},
      {"virt_ttk_mean_ms", mean(ttk), "virt_ms"},
      {"wire_bytes_per_key", ratio(bytes, keys), "bytes/key"},
  };
}

/// Host-time metrics of a traced run, from its untraced first part.
std::vector<Metric> host_time(std::span<const RoundStats> untraced) {
  double keys = 0.0, cpu_ms = 0.0, wall_ms = 0.0;
  std::vector<double> key_ms, node_ms;
  for (const RoundStats& rs : untraced) {
    keys += static_cast<double>(rs.established);
    cpu_ms += rs.cpu_ms;
    wall_ms += rs.wall_ms;
    key_ms.insert(key_ms.end(), rs.key_ms.begin(), rs.key_ms.end());
    node_ms.insert(node_ms.end(), rs.node_ms.begin(), rs.node_ms.end());
  }
  return {
      {"keys_per_cpu_s", ratio(keys, cpu_ms / 1e3), "keys/cpu_s"},
      {"keys_per_wall_s", ratio(keys, wall_ms / 1e3), "keys/s"},
      {"key_ms_p50", percentile(key_ms, 0.50), "ms"},
      {"key_ms_p90", percentile(key_ms, 0.90), "ms"},
      {"node_ms_p50", percentile(node_ms, 0.50), "ms"},
      {"peak_rss_mb", e2e::peak_rss_mb(), "MiB"},
  };
}

/// Single-thread replays of recorded attempt inputs, after the measured
/// phase: the exact per-call cost of layers no span can reach (the
/// reconciler and amplifier run inside the sessions) or that ran on two
/// lanes at once (predict allocations on the gateways).
struct ReplayCost {
  double calls = 0.0;
  double predict_allocs = 0.0;
  double reconcile_ms = 0.0;
  double reconcile_allocs = 0.0;
  double reconcile_iters = 0.0;
  double reconcile_ok = 0.0;
  double amplify_ms = 0.0;
  bool matches = true;  ///< inference reproduced every recorded prediction
};

ReplayCost replay_layers(const std::vector<ReplayInput>& inputs,
                         const Setup& setup) {
  ReplayCost c;
  const core::PrivacyAmplifier amplifier(128);
  for (std::size_t i = 0; i < std::min(inputs.size(), kReplayInputs); ++i) {
    const ReplayInput& in = inputs[i];
    const std::uint64_t a0 = allocations();
    const auto predicted = setup.predictor->infer(in.seq);
    c.predict_allocs += static_cast<double>(allocations() - a0);

    const double c0 = e2e::thread_cpu_ms();
    const std::uint64_t a1 = allocations();
    const auto y_bob = setup.reconciler->encode_bob(in.bob);
    const auto res = setup.reconciler->decode_mismatch(in.alice, y_bob);
    c.reconcile_allocs += static_cast<double>(allocations() - a1);
    c.reconcile_ms += e2e::thread_cpu_ms() - c0;
    c.reconcile_iters += static_cast<double>(res.iterations);
    const BitVec corrected = in.alice ^ res.mismatch;
    if (corrected == in.bob) c.reconcile_ok += 1.0;

    const double c1 = e2e::thread_cpu_ms();
    const BitVec hashed = amplifier.amplify(corrected, i);
    c.amplify_ms += e2e::thread_cpu_ms() - c1;
    c.matches = c.matches && predicted.bits == in.alice && hashed.size() == 128;
    c.calls += 1.0;
  }
  c.matches = c.matches && c.calls > 0.0;
  return c;
}

/// What the gateway engine does with every confirmed key, replayed on
/// recorded keys: build the initiator schedule and rekey it. Returns
/// {CPU ms, allocations} per key.
std::pair<double, double> replay_key_schedules(
    const std::vector<std::pair<BitVec, std::uint64_t>>& keys) {
  double ms = 0.0, allocs = 0.0;
  for (const auto& [key, device] : keys) {
    const double c0 = e2e::thread_cpu_ms();
    const std::uint64_t a0 = allocations();
    proto::KeySchedule schedule(key, 1 + (device << 4),
                                proto::KeySchedule::Role::kInitiator);
    for (std::size_t e = 1; e <= kRekeys; ++e) {
      schedule.rekey(static_cast<double>(e) * kRekeyIntervalMs);
    }
    allocs += static_cast<double>(allocations() - a0);
    ms += e2e::thread_cpu_ms() - c0;
  }
  const auto n = static_cast<double>(keys.size());
  return {ratio(ms, n), ratio(allocs, n)};
}

std::vector<Metric> per_layer(const WorkloadSpec& spec,
                              const std::vector<RoundStats>& rounds,
                              const TracedPhase& phase, const Workload& work,
                              const Setup& setup, Ledger& ledger,
                              std::size_t lanes, Gates& gates,
                              BenchReport& report) {
  const std::span<const RoundStats> traced =
      std::span<const RoundStats>(rounds).subspan(phase.first_round);
  double keys = 0.0, sessions = 0.0, attempts = 0.0, round_cpu = 0.0,
         predict_cpu = 0.0, engine_allocs = 0.0, peak_queued = 0.0,
         rekeys = 0.0, infer_calls = 0.0, batch_allocs = 0.0;
  for (const RoundStats& rs : traced) {
    keys += static_cast<double>(rs.established);
    sessions += static_cast<double>(rs.sessions);
    attempts += static_cast<double>(rs.attempts);
    round_cpu += rs.cpu_ms;
    predict_cpu += rs.predict_cpu_ms;
    infer_calls += static_cast<double>(rs.infer_calls);
    batch_allocs += static_cast<double>(rs.predict_batch_allocs);
    engine_allocs += static_cast<double>(rs.allocs);
    peak_queued = std::max(peak_queued, static_cast<double>(rs.peak_queued));
    rekeys += static_cast<double>(rs.rekeys);
  }
  // Overhead compares CPU per attempt: attempts per key differ between the
  // untraced and traced rounds' inputs, the cost of one attempt hardly.
  double untraced_cpu = 0.0, untraced_attempts = 0.0;
  for (std::size_t r = 0; r < phase.first_round; ++r) {
    untraced_cpu += rounds[r].cpu_ms;
    untraced_attempts += static_cast<double>(rounds[r].attempts);
  }
  if (spec.gateway) {
    // No single-thread span sees the engine's lanes: the agreement layer
    // is the engine's process CPU minus the predict spans.
    ledger.add(Layer::kAgree, static_cast<std::uint64_t>(sessions),
               round_cpu - predict_cpu, 0);
  }
  const auto layer = [&](Layer l) {
    return since(ledger, l, phase.ledger_start[static_cast<std::size_t>(l)]);
  };
  // Per-call costs use every span, set-up included: the gateways probe and
  // extract only while building their pool.
  const auto all = [&](Layer l) { return ledger.totals(l); };
  const e2e::LayerTotals probe = layer(Layer::kProbe);
  const e2e::LayerTotals extract = layer(Layer::kExtract);
  const e2e::LayerTotals predict = layer(Layer::kPredict);
  const e2e::LayerTotals agree = layer(Layer::kAgree);
  const e2e::LayerTotals schedule = layer(Layer::kKeySchedule);

  const ReplayCost rc = replay_layers(work.replay(), setup);
  gates.check("replay_reproduces_recorded_inputs", rc.matches);
  const double predict_allocs = ratio(rc.predict_allocs, rc.calls);

  // Key schedules: inline spans on single_link; the engine builds and
  // rekeys them internally, so the gateways replay that on recorded keys.
  double ks_us = ratio(schedule.self_cpu_ms * 1e3, keys);
  double ks_allocs = ratio(static_cast<double>(schedule.self_allocs), keys);
  if (spec.gateway) {
    const auto [ms, allocs] = replay_key_schedules(work.keys());
    ks_us = ms * 1e3;
    ks_allocs = allocs;
  }
  const double protocol_cpu = agree.self_cpu_ms + schedule.self_cpu_ms;
  // On the gateways only the batched predictions' allocations are exact;
  // the per-attempt infer() calls overlap the other lane and use the replay.
  const double agree_allocs =
      spec.gateway
          ? engine_allocs - batch_allocs - infer_calls * predict_allocs
          : static_cast<double>(agree.self_allocs);
  const double reconcile_share =
      ratio(ratio(rc.reconcile_ms, rc.calls) *
                phase.moved("reliability.attempts"),
            phase.cpu_ms);
  const auto share = [&](double cpu_ms) { return ratio(cpu_ms, phase.cpu_ms); };
  const auto per_key = [&](double n) { return ratio(n, keys); };
  // Registry counters moved over the traced phase, per established key.
  const auto counted = [&](const char* name) {
    return per_key(phase.moved(name));
  };
  const double coverage = share(probe.self_cpu_ms + extract.self_cpu_ms +
                                predict.self_cpu_ms + protocol_cpu);
  // Only single_link times every layer with spans of its own. On the
  // gateways protocol is the remainder of engine.run()'s CPU after the
  // predict spans, so coverage there is the share of measured CPU spent
  // inside engine.run(): it holds by construction and is not a check.
  if (!spec.gateway) {
    gates.check("single_link_spans_cover_95%_of_cpu", coverage >= 0.95);
  }

  std::vector<Metric> out = {
      {"channel.probe_us", per_call_us(all(Layer::kProbe)), "us"},
      {"channel.probe_calls_per_key",
       per_key(static_cast<double>(probe.calls)), "count"},
      {"channel.allocs_per_call", allocs_per_call(all(Layer::kProbe)),
       "count"},
      {"core.extract_us", per_call_us(all(Layer::kExtract)), "us"},
      {"core.extract_allocs_per_call", allocs_per_call(all(Layer::kExtract)),
       "count"},
      {"core.predict_us", per_call_us(all(Layer::kPredict)), "us"},
      {"core.predict_calls_per_key",
       per_key(static_cast<double>(predict.calls)), "count"},
      {"core.predict_allocs_per_call", predict_allocs, "count"},
      {"protocol.agree_self_us", ratio(agree.self_cpu_ms * 1e3, sessions),
       "us"},
      {"protocol.agree_allocs_per_key", ratio(agree_allocs, keys), "count"},
      {"protocol.key_schedule_us", ks_us, "us"},
      {"protocol.key_schedule_allocs_per_key", ks_allocs, "count"},
      {"protocol.cpu_us_per_key", ratio(protocol_cpu * 1e3, keys), "us"},
      {"core.reconcile_us", ratio(rc.reconcile_ms * 1e3, rc.calls), "us"},
      {"core.reconcile_iters", ratio(rc.reconcile_iters, rc.calls), "count"},
      {"core.reconcile_success_frac", ratio(rc.reconcile_ok, rc.calls),
       "fraction"},
      {"core.reconcile_allocs_per_call", ratio(rc.reconcile_allocs, rc.calls),
       "count"},
      {"core.amplify_us", ratio(rc.amplify_ms * 1e3, rc.calls), "us"},
      {"protocol.attempts_per_key", counted("reliability.attempts"), "count"},
      {"protocol.attempt_success_frac",
       ratio(phase.moved("reliability.established"),
             phase.moved("reliability.attempts")),
       "fraction"},
      {"arq.data_per_key", counted("arq.data_sent"), "count"},
      {"arq.retx_per_key", counted("arq.retransmissions"), "count"},
      {"arq.timeouts_per_key", counted("arq.timeouts"), "count"},
      {"link.frames_per_key", counted("link.sent"), "count"},
      {"link.dropped_per_key", counted("link.dropped"), "count"},
      {"link.crc_lost_per_key", counted("link.crc_lost"), "count"},
      {"wire.encoded_per_key", counted("wire.encoded"), "count"},
      {"wire.rejects_per_key", per_key(phase.moved_prefix("wire.reject.")),
       "count"},
      {"nn.dense_calls_per_key", counted("nn.dense.forward_calls"), "count"},
      {"nn.dense_mflop_per_key", counted("nn.dense.flops") / 1e6, "MFLOP"},
      {"nn.lstm_mflop_per_key", counted("nn.lstm.flops") / 1e6, "MFLOP"},
      {"gateway.rekeys_per_key", ratio(rekeys, keys), "count"},
      {"gateway.peak_queued", peak_queued, "count"},
      {"common.pool_idle_frac",
       1.0 - ratio(phase.cpu_ms,
                   phase.wall_ms * static_cast<double>(lanes)),
       "fraction"},
      {"channel.share", share(probe.self_cpu_ms), "fraction"},
      {"core.extract.share", share(extract.self_cpu_ms), "fraction"},
      {"core.predict.share", share(predict.self_cpu_ms), "fraction"},
      {"protocol.share", share(protocol_cpu), "fraction"},
      {"core.reconcile.share", reconcile_share, "fraction"},
      {"ledger.coverage", coverage, "fraction"},
      {"trace.overhead_frac",
       ratio(ratio(round_cpu, attempts),
             ratio(untraced_cpu, untraced_attempts)) -
           1.0,
       "fraction"},
  };
  for (Metric& m : host_time(std::span<const RoundStats>(rounds).first(
           phase.first_round))) {
    out.push_back(std::move(m));
  }

  Table t({"layer", "calls", "self CPU us/call", "share of CPU",
           "allocs/call"});
  const auto row = [&](const char* name, double calls, double us, double sh,
                       double allocs) {
    t.add_row({name, Table::fmt(calls, 0), Table::fmt(us, 1),
               sh < 0.0 ? std::string("in agree") : Table::pct(sh),
               Table::fmt(allocs, 1)});
  };
  row("channel.probe", static_cast<double>(all(Layer::kProbe).calls),
      per_call_us(all(Layer::kProbe)), share(probe.self_cpu_ms),
      allocs_per_call(all(Layer::kProbe)));
  row("core.extract", static_cast<double>(all(Layer::kExtract).calls),
      per_call_us(all(Layer::kExtract)), share(extract.self_cpu_ms),
      allocs_per_call(all(Layer::kExtract)));
  row("core.predict", static_cast<double>(all(Layer::kPredict).calls),
      per_call_us(all(Layer::kPredict)), share(predict.self_cpu_ms),
      predict_allocs);
  row("protocol.agree", sessions, ratio(agree.self_cpu_ms * 1e3, sessions),
      share(agree.self_cpu_ms), ratio(agree_allocs, sessions));
  row("protocol.key_schedule", keys, ks_us,
      spec.gateway ? -1.0 : share(schedule.self_cpu_ms), ks_allocs);
  row("core.reconcile (replay)", rc.calls,
      ratio(rc.reconcile_ms * 1e3, rc.calls), -1.0,
      ratio(rc.reconcile_allocs, rc.calls));
  const std::string caption =
      std::string("per-layer ledger, ") + spec.name + ", " +
      std::to_string(traced.size()) + " traced rounds, " +
      Table::pct(coverage) + " of CPU covered";
  t.print(caption);
  report.add_table("ledger", caption, t);
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< 0: the fixed rounds only
  bool trace = false;
  bool check_lanes = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload single_link|gateway_predict|"
               "gateway_lossy [--seed N] [--seconds S] [--trace 0|1] "
               "[--check-lanes] [--quick] [--threads N] [--trace-out PATH] "
               "[--json PATH]\n",
               argv0);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      if (!parse_u64(value(), opt.seed)) usage(argv[0]);
    } else if (arg == "--seconds") {
      if (!parse_u64(value(), v) || v > 600) usage(argv[0]);
      opt.seconds = static_cast<double>(v);
    } else if (arg == "--trace") {
      if (!parse_u64(value(), v) || v > 1) usage(argv[0]);
      opt.trace = v == 1;
    } else if (arg == "--check-lanes") {
      opt.check_lanes = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage(argv[0]);
  parallel::set_default_threads(kDefaultLanes);
  // Suite-standard flags (--quick, --threads, --trace-out, --json).
  BenchReport report(std::string("e2e_") + spec->name,
                     static_cast<int>(rest.size()), rest.data());
  const std::size_t lanes = parallel::default_threads();
  const bool quick = report.quick();
  if (quick) opt.seconds = 0.0;

  Ledger ledger;
  ledger.set_enabled(opt.trace);
  ledger.set_export(opt.trace && !report.trace_path().empty());
  if (!report.trace_path().empty()) {
    trace::TraceLog::global().set_capacity(std::size_t{1} << 18);
  }
  std::fprintf(stderr, "bench_e2e: %s, seed %llu, %zu lanes, %s run\n",
               spec->name, static_cast<unsigned long long>(opt.seed), lanes,
               opt.trace ? "traced" : "untraced");

  // ------------------------------------------------------------- set-up
  Setup setup;
  std::vector<double> setup_s;
  const std::size_t repeats = quick || opt.trace ? 1 : kSetupRepeats;
  for (std::size_t k = 0; k < repeats; ++k) {
    // CPU time, not wall: work moved into set-up shows whichever of the
    // two set-up lanes it lands on.
    const double c0 = e2e::process_cpu_ms();
    set_up(setup, *spec, quick, ledger);
    setup_s.push_back((e2e::process_cpu_ms() - c0) / 1e3);
  }
  proto::register_gateway_metrics();

  const std::size_t scale_div = quick ? 10 : 1;
  std::unique_ptr<Workload> work;
  if (spec->gateway) {
    work = std::make_unique<Gateway>(*spec, opt.seed, scale_div, setup, ledger);
  } else {
    work =
        std::make_unique<SingleLink>(*spec, opt.seed, scale_div, setup, ledger);
  }
  ledger.set_enabled(false);
  work->warm_up();

  // ------------------------------------------------------- measured phase
  std::vector<RoundStats> rounds;
  TracedPhase phase;
  const double start = e2e::wall_ms();
  const double deadline = start + opt.seconds * 1e3;
  // A traced run spends its first share untraced: the overhead reference.
  const double traced_from = start + kUntracedShare * opt.seconds * 1e3;
  for (std::size_t r = 0;; ++r) {
    const double now = e2e::wall_ms();
    if (opt.trace && !ledger.enabled() && r >= 1 && now >= traced_from) {
      ledger.set_enabled(true);
      work->set_recording(true);
      phase.first_round = r;
      for (std::size_t l = 0; l < kLayers; ++l) {
        phase.ledger_start[l] = ledger.totals(static_cast<Layer>(l));
      }
      phase.counters_start = read_counters();
      phase.cpu_ms = e2e::process_cpu_ms();
      phase.wall_ms = e2e::wall_ms();
    }
    const bool enough = opt.trace ? ledger.enabled() && r > phase.first_round
                                  : r >= spec->fixed_rounds;
    if (enough && now >= deadline) break;
    rounds.push_back(work->run_round(r, lanes));
    std::fprintf(stderr,
                 "bench_e2e: round %zu: %zu/%zu keys, %.0f ms wall, %.0f ms "
                 "cpu\n",
                 r, rounds.back().established, rounds.back().sessions,
                 rounds.back().wall_ms, rounds.back().cpu_ms);
  }
  phase.cpu_ms = e2e::process_cpu_ms() - phase.cpu_ms;
  phase.wall_ms = e2e::wall_ms() - phase.wall_ms;
  phase.counters_end = read_counters();
  ledger.set_enabled(false);
  work->set_recording(false);

  // ---------------------------------------------------------------- gates
  std::size_t attempted = 0, established = 0, failed = 0;
  double kar = 0.0, kar_n = 0.0;
  for (const RoundStats& rs : rounds) {
    attempted += rs.sessions;
    established += rs.established;
    failed += rs.failed;
    kar += rs.kar_sum;
    kar_n += static_cast<double>(rs.kar_n);
  }
  const double established_frac =
      ratio(static_cast<double>(established), static_cast<double>(attempted));
  const double kar_pre = ratio(kar, kar_n);
  Gates gates;
  gates.check("alloc_hooks_installed", alloc_stats::hooks_installed());
  gates.check("every_key_passed_its_lifecycle_checks", failed == 0);
  gates.check("established_frac_at_least_0.85", established_frac >= 0.85);
  gates.check("kar_pre_within_0.80_0.90", kar_pre >= 0.80 && kar_pre <= 0.90);

  const std::vector<Metric> out =
      opt.trace ? per_layer(*spec, rounds, phase, *work, setup, ledger, lanes,
                            gates, report)
                : end_to_end(*spec, rounds, setup_s);

  if (opt.check_lanes && spec->gateway) {
    const RoundStats one = work->run_round(0, 1);
    const RoundStats two = work->run_round(0, 2);
    gates.check("round0_identical_at_1_and_2_lanes",
                one.report && two.report &&
                    same_virtual_report(*one.report, *two.report));
  }

  // --------------------------------------------------------------- output
  json::Value metrics_json = json::Value::object();
  for (const Metric& m : out) {
    std::printf("%s %s %s\n", m.name.c_str(),
                json::format_number(m.value).c_str(), m.unit.c_str());
    json::Value entry = json::Value::object();
    entry.set("value", json::Value(m.value));
    entry.set("unit", json::Value(m.unit));
    metrics_json.set(m.name, std::move(entry));
    report.add_scalar(m.name, m.value);
  }
  report.write();
  json::Value doc = json::Value::object();
  doc.set("correct", json::Value(gates.ok()));
  doc.set("attempted", json::Value(attempted));
  doc.set("failed", json::Value(failed));
  doc.set("metrics", std::move(metrics_json));
  std::printf("%s\n", doc.dump(0).c_str());
  return gates.ok() ? 0 : 1;
}
