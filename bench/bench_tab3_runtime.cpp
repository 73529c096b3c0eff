// Table III — computation cost of the online pipeline stages.
//
// google-benchmark timings of each per-key online operation for both roles:
//   Alice: BiLSTM prediction + quantization inference, reconciliation
//          (the protocol's beam decode against the public encoder, on a
//          block carrying the channel's attempt-0 mismatch), privacy
//          amplification.
//   Bob:   multi-bit quantization, syndrome encoding, privacy amplification.
// Paper shape (Raspberry Pi 4): prediction dominates (ms-scale) and
// reconciliation is tens of microseconds; Bob's total is an order of
// magnitude below Alice's. Absolute numbers here reflect this host, not a
// Pi; the stage *ratios* are the reproduced quantity. Training is offline
// and excluded, as in the paper.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "common/bench_io.h"
#include "common/table.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "core/predictor.h"
#include "core/privacy.h"
#include "core/quantizer.h"
#include "core/reconciler.h"

using namespace vkey;
using namespace vkey::core;

namespace {

// Shared state, built once.
struct Fixture {
  PredictorQuantizer predictor;
  PredictorQuantizer predictor_int8;  ///< same weights, int8 infer path
  SyndromeCode reconciler{64, 11};
  nn::Vec alice_seq;
  std::vector<double> bob_seq_raw;
  BitVec key_alice;
  BitVec key_bob;
  std::array<double, kCodeDim> y_bob;

  Fixture()
      : predictor([] {
          PredictorConfig cfg;
          cfg.hidden = 32;  // the evaluation configuration
          return cfg;
        }()),
        predictor_int8(predictor) {
    predictor_int8.set_quantized(true);
    vkey::Rng rng(5);
    alice_seq.resize(64);
    bob_seq_raw.resize(64);
    for (std::size_t i = 0; i < 64; ++i) {
      alice_seq[i] = rng.uniform();
      bob_seq_raw[i] = -80.0 + 5.0 * rng.gaussian();
    }
    key_bob = random_bits(64, rng);
    // The channel's attempt-0 mismatch: kar_pre ~ 0.833, so about 11 of
    // the 64 bits differ.
    key_alice = key_bob;
    while ((key_alice ^ key_bob).weight() < 11) {
      key_alice.flip(static_cast<std::size_t>(rng.uniform_int(64)));
    }
    y_bob = reconciler.encode_bob(key_bob);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Alice_PredictionAndQuantization(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.predictor.infer(f.alice_seq));
  }
}
BENCHMARK(BM_Alice_PredictionAndQuantization);

/// The int8 fast path (PredictorConfig::quantized) — NOT bit-exact with
/// the float rows; bench_ablation table A6 reports its KAR cost.
void BM_Alice_PredictionAndQuantization_Int8(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.predictor_int8.infer(f.alice_seq));
  }
}
BENCHMARK(BM_Alice_PredictionAndQuantization_Int8);

void BM_Alice_Reconciliation(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.reconciler.reconcile(f.key_alice, f.y_bob));
  }
}
BENCHMARK(BM_Alice_Reconciliation);

void BM_Alice_PrivacyAmplification(benchmark::State& state) {
  auto& f = fixture();
  const PrivacyAmplifier amp(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(amp.amplify(f.key_alice, 1));
  }
}
BENCHMARK(BM_Alice_PrivacyAmplification);

void BM_Bob_Quantization(benchmark::State& state) {
  auto& f = fixture();
  const MultiBitQuantizer quant(
      {.bits_per_sample = 1, .block_size = 16, .guard_band_ratio = 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant.quantize(f.bob_seq_raw));
  }
}
BENCHMARK(BM_Bob_Quantization);

void BM_Bob_SyndromeEncoding(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.reconciler.encode_bob(f.key_bob));
  }
}
BENCHMARK(BM_Bob_SyndromeEncoding);

void BM_Bob_PrivacyAmplification(benchmark::State& state) {
  auto& f = fixture();
  const PrivacyAmplifier amp(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(amp.amplify(f.key_bob, 1));
  }
}
BENCHMARK(BM_Bob_PrivacyAmplification);

/// Console reporting plus a captured (name, real time, iterations) list so
/// the run can be exported through the shared BenchReport JSON path. Wall
/// timings are host-dependent, so bench_runner keeps this bench out of the
/// regenerated EXPERIMENTS.md tables; the JSON is for artifacts/inspection.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Run {
    std::string name;
    double real_ns;
    double cpu_ns;
    std::int64_t iterations;
  };

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs)
      override {
    for (const auto& r : runs) {
      captured_.push_back({r.benchmark_name(), r.GetAdjustedRealTime(),
                           r.GetAdjustedCPUTime(), r.iterations});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Run>& captured() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  // Split argv: the suite-wide flags (--json/--quick) go to BenchReport,
  // everything else is handed to google-benchmark untouched.
  std::vector<char*> ours{argv[0]};
  std::vector<char*> gbench{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick" || a == "--help") {
      ours.push_back(argv[i]);
    } else if (a == "--json" && i + 1 < argc) {
      ours.push_back(argv[i]);
      ours.push_back(argv[++i]);
    } else {
      gbench.push_back(argv[i]);
    }
  }
  int ourc = static_cast<int>(ours.size());
  vkey::BenchReport report("tab3_runtime", ourc, ours.data());

  // Quick mode: shrink the measurement window (benchmark 1.7 takes a plain
  // double, in seconds).
  std::string min_time = "--benchmark_min_time=0.02";
  if (report.quick()) gbench.push_back(min_time.data());

  int gbenchc = static_cast<int>(gbench.size());
  benchmark::Initialize(&gbenchc, gbench.data());
  if (benchmark::ReportUnrecognizedArguments(gbenchc, gbench.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  Table t({"stage", "real time (ns)", "cpu time (ns)", "iterations"});
  for (const auto& r : reporter.captured()) {
    t.add_row({r.name, Table::fmt(r.real_ns, 1), Table::fmt(r.cpu_ns, 1),
               std::to_string(r.iterations)});
  }
  report.add_table("tab3_runtime",
                   "Table III: per-stage online computation cost "
                   "(host-dependent wall timings; not spliced into docs)",
                   t);
  report.write();
  return 0;
}
