// End-to-end Vehicle-Key pipeline (Fig. 5): probing -> arRSSI extraction ->
// BiLSTM prediction+quantization (Alice) / multi-bit quantization (Bob) ->
// reconciliation over the public syndrome code -> privacy amplification.
//
// The pipeline owns a trace generator, trains its one learned component
// (the predictor) on an initial segment of the trace and evaluates on the
// following segment, reconciling each predictor fragment as one key block
// with the SyndromeCode the protocol runs (nothing in it is trained),
// reporting the paper's two headline metrics:
//   * key agreement rate (KAR): fraction of agreeing bits between the two
//     parties' keys, before and after reconciliation;
//   * key generation rate (KGR): successfully agreed secret bits per second
//     of channel use.
// It also evaluates Eve (imitating attacker) through the identical pipeline
// and hands out her key material per block, so the one figure that reports
// the paper's one-shot decoder attack (Fig. 15) can train a decoder for it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/trace.h"
#include "common/bitvec.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/privacy.h"
#include "core/reconciler.h"

namespace vkey::core {

struct PipelineConfig {
  /// The pipeline always evaluates Eve, so its trace places her.
  channel::TraceConfig trace{
      .scenario = {}, .phy = {}, .device_eve = channel::dragino_lora_shield()};
  DatasetConfig dataset;
  PredictorConfig predictor;
  std::size_t predictor_epochs = 45;
  /// Fig. 10 ablation: false replaces the BiLSTM with Alice running the
  /// same multi-bit quantizer as Bob on her own measurements.
  bool use_prediction = true;
};

/// One reconciled key block (one predictor fragment) and its quality.
struct KeyBlockResult {
  BitVec bob_key;            ///< reference key (Bob's)
  BitVec alice_raw;          ///< Alice's key before reconciliation — the
                             ///< probe material a protocol session starts from
  BitVec alice_corrected;    ///< Alice's key after reconciliation
  /// Eve's key material for the block, from her own observations through
  /// the same quantization as Alice's: what she decodes y_Bob with.
  BitVec eve_raw;
  double kar_pre = 0.0;      ///< bit agreement before reconciliation
  double kar_post = 0.0;     ///< bit agreement after reconciliation
  bool success = false;      ///< exact agreement (usable key)
  /// Eve's agreement when she runs the protocol's own decode on y_Bob with
  /// eve_raw (the encoder, the Bloom parameters and the decode are public):
  /// a strictly stronger attack than the paper's one decoder pass.
  double eve_kar_iterative = 0.0;
  /// That decode recovered Bob's key exactly from Eve's key material.
  bool eve_success_iterative = false;
};

struct PipelineMetrics {
  double mean_kar_pre = 0.0;
  double mean_kar_post = 0.0;
  double std_kar_post = 0.0;
  double key_success_rate = 0.0;  ///< fraction of blocks agreeing exactly
  double kgr_bits_per_s = 0.0;    ///< net secret bits / second
  double mean_eve_kar_iterative = 0.0;  ///< Eve running the protocol's decode
  /// Blocks Eve's run of the protocol's decode recovers exactly.
  std::size_t eve_exact_blocks_iterative = 0;
  std::size_t blocks = 0;
  double test_duration_s = 0.0;
};

class KeyGenPipeline {
 public:
  explicit KeyGenPipeline(const PipelineConfig& config);

  /// Generate the trace, train on the first `train_rounds`, evaluate on the
  /// next `test_rounds`.
  PipelineMetrics run(std::size_t train_rounds, std::size_t test_rounds);

  /// Per-block details of the last run() (for randomness/NIST harvesting).
  const std::vector<KeyBlockResult>& blocks() const { return blocks_; }

  /// Evaluation windows of the last run() — lets protocol-layer callers
  /// (e.g. the gateway simulator) drive the trained predictor with the
  /// same held-out measurement windows the metrics were computed on.
  const std::vector<TrainingSample>& test_samples() const {
    return test_samples_;
  }

  /// Concatenation of all successfully agreed, privacy-amplified keys from
  /// the last run() — the bit stream fed to the NIST suite (Table II).
  BitVec amplified_key_stream() const;

  /// The trained predictor (valid after run()).
  PredictorQuantizer& predictor();
  /// The public code every block reconciles with: the frozen f1 of a
  /// default AutoencoderReconciler, predictor.key_bits wide.
  const SyndromeCode& reconciler() const { return code_; }

  const PipelineConfig& config() const { return cfg_; }

 private:
  PipelineConfig cfg_;
  std::optional<PredictorQuantizer> predictor_;
  SyndromeCode code_;
  std::vector<KeyBlockResult> blocks_;
  std::vector<TrainingSample> test_samples_;
  PrivacyAmplifier amplifier_{128};
};

}  // namespace vkey::core
