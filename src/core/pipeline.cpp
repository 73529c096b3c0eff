#include "core/pipeline.h"

#include <cmath>
#include <optional>

#include "common/error.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"

namespace vkey::core {

namespace {

// Stride of the *training* sample windows (overlap augments the small
// per-trace dataset); evaluation always uses non-overlapping windows.
constexpr std::size_t kTrainStride = 4;

// Seed of the public code: the benches' and examples' SyndromeCode(64, 11),
// the frozen f1 of a default AutoencoderReconciler.
constexpr std::uint64_t kCodeSeed = 11;

// Stage histograms are fetched once per process; the per-run cost is a
// relaxed atomic observe, keeping the hot path within the metrics budget.
metrics::Histogram& stage_hist(const char* stage) {
  return metrics::Registry::global().histogram(
      std::string("pipeline.stage.") + stage + "_ms");
}

metrics::Counter& bit_counter(const char* name) {
  return metrics::Registry::global().counter(std::string("pipeline.") + name);
}

}  // namespace

KeyGenPipeline::KeyGenPipeline(const PipelineConfig& config)
    : cfg_(config), code_(cfg_.predictor.key_bits, kCodeSeed) {
  VKEY_REQUIRE(cfg_.dataset.seq_len == cfg_.predictor.seq_len,
               "dataset and predictor sequence lengths must match");
}

PredictorQuantizer& KeyGenPipeline::predictor() {
  VKEY_REQUIRE(predictor_.has_value(), "run() has not trained a predictor");
  return *predictor_;
}

PipelineMetrics KeyGenPipeline::run(std::size_t train_rounds,
                                    std::size_t test_rounds) {
  VKEY_REQUIRE(test_rounds >= 1, "need test rounds");
  static metrics::Histogram& run_ms = stage_hist("run");
  static metrics::Histogram& probe_ms = stage_hist("probe");
  static metrics::Histogram& extract_ms = stage_hist("extract");
  static metrics::Histogram& train_pred_ms = stage_hist("train_predictor");
  static metrics::Histogram& predict_ms = stage_hist("predict");
  static metrics::Histogram& quantize_ms = stage_hist("quantize");
  static metrics::Histogram& reconcile_ms = stage_hist("reconcile");
  static metrics::Histogram& eval_ms = stage_hist("eval");
  static metrics::Counter& runs = bit_counter("runs");
  static metrics::Counter& quantized_bits = bit_counter("bits.quantized");
  static metrics::Counter& blocks_total = bit_counter("blocks.total");
  static metrics::Counter& blocks_success = bit_counter("blocks.success");
  static metrics::Counter& reconciled_bits = bit_counter("bits.reconciled");
  static metrics::Counter& agreed_bits = bit_counter("bits.agreed");
  runs.add(1);

  channel::TraceGenerator gen(cfg_.trace);

  // Root of the run's span tree: every stage timer below (and, through the
  // pool's lane annotation, every span opened inside parallel fan-out)
  // parents under it.
  trace::ScopedTimer run_timer(run_ms, "pipeline.run");
  run_timer.attr("train_rounds", train_rounds)
      .attr("test_rounds", test_rounds);

  // --- data collection ---
  trace::ScopedTimer probe_timer(probe_ms, "pipeline.probe");
  const auto train_trace = gen.generate(train_rounds);
  const auto test_trace = gen.generate(test_rounds);
  probe_timer.stop();

  trace::ScopedTimer extract_timer(extract_ms, "pipeline.extract");
  const auto train_streams = extract_streams(
      train_trace, cfg_.dataset.extractor, cfg_.dataset.reciprocal_windows);
  const auto test_streams = extract_streams(
      test_trace, cfg_.dataset.extractor, cfg_.dataset.reciprocal_windows);
  DatasetConfig train_ds = cfg_.dataset;
  train_ds.stride = kTrainStride;
  DatasetConfig test_ds = cfg_.dataset;
  test_ds.stride = 0;  // non-overlapping evaluation windows
  const auto train_samples = make_samples(train_streams, train_ds);
  test_samples_ = make_samples(test_streams, test_ds);
  const auto& test_samples = test_samples_;
  extract_timer.stop();
  VKEY_REQUIRE(!test_samples.empty(), "test segment produced no samples");

  // --- training ---
  if (cfg_.use_prediction) {
    VKEY_REQUIRE(!train_samples.empty(), "train segment produced no samples");
    trace::ScopedTimer t(train_pred_ms, "pipeline.train_predictor");
    predictor_.emplace(cfg_.predictor);
    predictor_->train(train_samples, cfg_.predictor_epochs);
  }

  // --- evaluation ---
  // Every per-sample and per-block step below is a pure function of the
  // trained (now immutable) predictor and the public code, so the stage
  // fans out through the deterministic pool: results land in index-addressed slots and every
  // order-sensitive reduction runs on this thread in index order, which
  // keeps the output bit-identical for any thread count.
  trace::ScopedTimer eval_timer(eval_ms, "pipeline.eval");
  const std::size_t frag_bits = cfg_.predictor.key_bits;

  // The multi-bit fallback is only needed for the Fig. 10 ablation branch;
  // the normal prediction path never constructs it.
  std::optional<MultiBitQuantizer> fallback_quant;
  if (!cfg_.use_prediction) {
    QuantizerConfig qc = cfg_.dataset.quantizer;
    qc.guard_band_ratio = 0.0;
    qc.block_size = std::min(qc.block_size, cfg_.dataset.seq_len);
    fallback_quant.emplace(qc);
  }

  // Each window's fragment is one key block.
  const std::size_t n_blocks = test_samples.size();
  blocks_.assign(n_blocks, KeyBlockResult{});
  if (cfg_.use_prediction) {
    // Chunked prediction: windows are grouped into fixed-size chunks, the
    // pool's unit of work and one pipeline.predict_chunk span each, and
    // each chunk runs through PredictorQuantizer::infer_batch (infer() per
    // window over one workspace). The chunk geometry depends only on the
    // sample count — never on the lane count — so the output stays
    // byte-stable for any lane count (see DESIGN.md "Parallel
    // execution & determinism contract").
    constexpr std::size_t kPredictChunk = 16;
    const std::size_t n_chunks =
        (n_blocks + kPredictChunk - 1) / kPredictChunk;
    parallel::parallel_for(
        n_chunks,
        [&](std::size_t c) {
          const std::size_t lo = c * kPredictChunk;
          const std::size_t hi = std::min(n_blocks, lo + kPredictChunk);
          trace::ScopedTimer t(predict_ms, "pipeline.predict_chunk");
          t.attr("chunk", c).attr("windows", 2 * (hi - lo));
          std::vector<nn::Vec> windows;
          windows.reserve(2 * (hi - lo));
          for (std::size_t i = lo; i < hi; ++i) {
            windows.push_back(test_samples[i].alice_seq);
            windows.push_back(test_samples[i].eve_seq);
          }
          const auto outs = predictor_->infer_batch(windows);
          for (std::size_t i = lo; i < hi; ++i) {
            blocks_[i].alice_raw = outs[2 * (i - lo)].bits;
            blocks_[i].eve_raw = outs[2 * (i - lo) + 1].bits;
            quantized_bits.add(blocks_[i].alice_raw.size());
          }
        });
  } else {
    parallel::parallel_for(n_blocks, [&](std::size_t i) {
      // Ablation: Alice quantizes her own window directly.
      const TrainingSample& s = test_samples[i];
      KeyBlockResult& blk = blocks_[i];
      trace::ScopedTimer t(quantize_ms);
      std::vector<double> a(s.alice_seq.begin(), s.alice_seq.end());
      std::vector<double> e(s.eve_seq.begin(), s.eve_seq.end());
      blk.alice_raw = fallback_quant->quantize(a).bits;
      blk.eve_raw = fallback_quant->quantize(e).bits;
      // Pad/trim to the fragment width (guard bands disabled, so sizes
      // normally already match).
      while (blk.alice_raw.size() < frag_bits) blk.alice_raw.push_back(false);
      blk.alice_raw = blk.alice_raw.slice(0, frag_bits);
      while (blk.eve_raw.size() < frag_bits) blk.eve_raw.push_back(false);
      blk.eve_raw = blk.eve_raw.slice(0, frag_bits);
      quantized_bits.add(blk.alice_raw.size());
    });
  }

  parallel::parallel_for(
      n_blocks,
      [&](std::size_t b) {
        KeyBlockResult& blk = blocks_[b];
        blk.bob_key = test_samples[b].bob_bits;
        VKEY_REQUIRE(blk.alice_raw.size() == frag_bits &&
                         blk.bob_key.size() == frag_bits,
                     "fragment width mismatch");
        blk.kar_pre = blk.alice_raw.agreement(blk.bob_key);
        {
          trace::ScopedTimer t(reconcile_ms, "pipeline.reconcile_block");
          t.attr("block", b);
          const auto y_bob = code_.encode_bob(blk.bob_key);
          blk.alice_corrected = code_.reconcile(blk.alice_raw, y_bob);
          blk.kar_post = blk.alice_corrected.agreement(blk.bob_key);
          blk.success = blk.alice_corrected == blk.bob_key;
          // Eve eavesdrops y_Bob and runs the protocol's own decode on it
          // with her key material.
          const BitVec eve_fixed = code_.reconcile(blk.eve_raw, y_bob);
          blk.eve_kar_iterative = eve_fixed.agreement(blk.bob_key);
          blk.eve_success_iterative = eve_fixed == blk.bob_key;
        }
      });

  // Ordered reduction over the finished blocks.
  std::vector<double> kar_pre_list, kar_post_list, eve_iter_list;
  std::size_t success = 0, eve_success = 0;
  kar_pre_list.reserve(n_blocks);
  kar_post_list.reserve(n_blocks);
  eve_iter_list.reserve(n_blocks);
  for (const auto& blk : blocks_) {
    blocks_total.add(1);
    reconciled_bits.add(frag_bits);
    if (blk.success) {
      blocks_success.add(1);
      agreed_bits.add(frag_bits);
      ++success;
    }
    kar_pre_list.push_back(blk.kar_pre);
    kar_post_list.push_back(blk.kar_post);
    eve_iter_list.push_back(blk.eve_kar_iterative);
    eve_success += blk.eve_success_iterative;
  }
  eval_timer.stop();

  PipelineMetrics m;
  m.blocks = blocks_.size();
  m.mean_kar_pre = vkey::stats::mean(kar_pre_list);
  m.test_duration_s = static_cast<double>(test_rounds) * gen.round_duration();
  // The syndrome's kCodeDim public values are charged one bit each.
  const KeyScore score =
      score_key_blocks(kar_post_list, success, m.blocks * kCodeDim,
                       frag_bits, m.test_duration_s);
  m.mean_kar_post = score.mean_kar;
  m.std_kar_post = score.std_kar;
  m.key_success_rate = score.exact_rate;
  m.kgr_bits_per_s = score.kgr_bits_per_s;
  m.mean_eve_kar_iterative = vkey::stats::mean(eve_iter_list);
  m.eve_exact_blocks_iterative = eve_success;
  return m;
}

BitVec KeyGenPipeline::amplified_key_stream() const {
  VKEY_REQUIRE(!blocks_.empty(), "run() produced no blocks");
  static metrics::Histogram& amplify_ms = stage_hist("amplify");
  trace::ScopedTimer t(amplify_ms, "pipeline.amplify");
  BitVec stream;
  std::uint64_t salt = 0;
  for (const auto& blk : blocks_) {
    if (!blk.success) continue;
    stream.append(amplifier_.amplify(blk.alice_corrected, salt++));
  }
  bit_counter("bits.amplified").add(stream.size());
  return stream;
}

}  // namespace vkey::core
