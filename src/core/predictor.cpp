#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vkey::core {

namespace {

constexpr double kTheta = 0.9;  ///< joint-loss weight (paper, Eq. 3)
constexpr double kLearningRate = 2e-3;
constexpr std::size_t kBatchSize = 16;
/// Period of the phase input feature (see predictor.h).
constexpr std::size_t kPhasePeriod = 4;
/// Per-step input width (see write_inputs).
constexpr std::size_t kInputWidth = 3;

/// Per-step input: [value, phase within the mirror pairing, progress],
/// written as v.size() rows of kInputWidth values.
void write_inputs(const nn::Vec& v, double* x) {
  const double n = static_cast<double>(v.size());
  const double period = static_cast<double>(kPhasePeriod);
  for (std::size_t t = 0; t < v.size(); ++t) {
    double* row = x + t * kInputWidth;
    row[0] = v[t];
    row[1] = static_cast<double>(t % kPhasePeriod) / period;
    row[2] = static_cast<double>(t) / n;
  }
}

/// Rejects an empty sample set and any sample whose shapes disagree with
/// the model's, before any work runs.
void check_samples(std::span<const TrainingSample> samples,
                   const PredictorConfig& cfg) {
  VKEY_REQUIRE(!samples.empty(), "no samples");
  for (const TrainingSample& s : samples) {
    VKEY_REQUIRE(s.alice_seq.size() == cfg.seq_len, "sample seq_len mismatch");
    VKEY_REQUIRE(s.bob_seq.size() == cfg.seq_len, "sample target mismatch");
    VKEY_REQUIRE(s.bob_bits.size() == cfg.key_bits,
                 "sample bits width mismatch");
  }
}

}  // namespace

PredictorQuantizer::PredictorQuantizer(const PredictorConfig& config)
    : cfg_(config),
      rng_(config.seed),
      bilstm_(kInputWidth, config.hidden, rng_),
      pred_head_(config.seq_len * 2 * config.hidden, config.seq_len, rng_),
      quant_head_(config.seq_len, config.key_bits, rng_) {
  VKEY_REQUIRE(config.seq_len >= 4, "sequence too short");
  VKEY_REQUIRE(config.hidden >= 2, "hidden size too small");
  if (config.quantized) set_quantized(true);
}

void PredictorQuantizer::set_quantized(bool quantized) {
  bilstm_.set_quantized(quantized);
  pred_head_.set_quantized(quantized);
  quant_head_.set_quantized(quantized);
}

std::vector<nn::Parameter*> PredictorQuantizer::parameters() {
  auto p = bilstm_.parameters();
  for (auto* q : pred_head_.parameters()) p.push_back(q);
  for (auto* q : quant_head_.parameters()) p.push_back(q);
  return p;
}

TrainReport PredictorQuantizer::train(std::span<const TrainingSample> samples,
                                      std::size_t epochs) {
  check_samples(samples, cfg_);
  VKEY_REQUIRE(epochs >= 1, "need at least one training epoch");
  nn::Adam opt(parameters(), kLearningRate);

  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);

  // One set of rows per call, row m of each being batch member m's. The
  // BiLSTM writes its [forward h_t ; backward h_t] rows straight into the
  // prediction head's input row, and reads dL/dh back from that row's
  // gradient.
  const std::size_t batch = std::min(kBatchSize, samples.size());
  const std::size_t n = cfg_.seq_len, k = cfg_.key_bits;
  const std::size_t h_len = n * bilstm_.output_size();
  std::vector<nn::BiLstm::Cache> lstm_caches(batch);
  nn::Vec x(n * kInputWidth), z(k);  // one member's inputs and bit targets
  nn::Vec h(batch * h_len), dh(batch * h_len);
  nn::Vec y_hat(batch * n), dy(batch * n), mse_grad(batch * n);
  nn::Vec logits(batch * k), dlogits(batch * k);
  const auto row = [](nn::Vec& v, std::size_t m, std::size_t width) {
    return std::span(v).subspan(m * width, width);
  };

  TrainReport report;
  for (std::size_t e = 0; e < epochs; ++e) {
    // Shuffle sample order each epoch.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng_.uniform_int(i))]);
    }
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t bs = std::min(batch, order.size() - start);
      // Forward every member; the loss sums in member order.
      for (std::size_t m = 0; m < bs; ++m) {
        const TrainingSample& s = samples[order[start + m]];
        write_inputs(s.alice_seq, x.data());
        bilstm_.forward(x, n, row(h, m, h_len), lstm_caches[m]);
        pred_head_.forward(row(h, m, h_len), row(y_hat, m, n));
        quant_head_.forward(row(y_hat, m, n), row(logits, m, k));

        // Joint loss.
        for (std::size_t i = 0; i < k; ++i) z[i] = s.bob_bits.get(i);
        const double mse =
            nn::mse_loss(row(y_hat, m, n), s.bob_seq, row(mse_grad, m, n));
        const auto dl = row(dlogits, m, k);
        const double bce = nn::bce_with_logits(row(logits, m, k), z, dl);
        epoch_loss += kTheta * mse + (1.0 - kTheta) * bce;
        for (double& g : dl) g = (1.0 - kTheta) * g;
      }

      // Backward: BCE through the quantization head into y_hat, plus the
      // MSE gradient directly on y_hat, then the prediction head and the
      // BiLSTM, each member's gradients added in member order.
      const auto first = [batch, bs](nn::Vec& v) {
        return std::span(v).first(v.size() / batch * bs);
      };
      quant_head_.backward_batch(bs, first(y_hat), first(logits),
                                 first(dlogits), first(dy));
      for (std::size_t i = 0; i < bs * n; ++i) dy[i] += kTheta * mse_grad[i];
      pred_head_.backward_batch(bs, first(h), first(y_hat), first(dy),
                                first(dh));
      for (std::size_t m = 0; m < bs; ++m) {
        bilstm_.backward(lstm_caches[m], row(dh, m, h_len));
      }
      opt.step(bs);
    }
    report.epoch_loss.push_back(epoch_loss /
                                static_cast<double>(samples.size()));
  }
  report.final_loss = report.epoch_loss.back();
  return report;
}

std::size_t PredictorQuantizer::workspace_size() const {
  return cfg_.seq_len * (kInputWidth + bilstm_.output_size()) +
         bilstm_.workspace_size();
}

void PredictorQuantizer::infer_window(const nn::Vec& alice_seq, double* ws,
                                      Output& out) const {
  const std::size_t h_len = cfg_.seq_len * bilstm_.output_size();
  double* x = ws;
  double* h = x + cfg_.seq_len * kInputWidth;
  write_inputs(alice_seq, x);
  bilstm_.infer_into({x, cfg_.seq_len * kInputWidth}, cfg_.seq_len,
                     {h, h_len}, {h + h_len, bilstm_.workspace_size()});
  out.predicted_seq.resize(cfg_.seq_len);
  out.probabilities.resize(cfg_.key_bits);
  pred_head_.infer_into(h, out.predicted_seq.data());
  // The quantization head's logits become probabilities in place.
  quant_head_.infer_into(out.predicted_seq.data(), out.probabilities.data());
  for (double& p : out.probabilities) p = nn::sigmoid(p);
  out.bits = BitVec::from_doubles_threshold(out.probabilities);
}

PredictorQuantizer::Output PredictorQuantizer::infer(
    const nn::Vec& alice_seq) const {
  VKEY_REQUIRE(alice_seq.size() == cfg_.seq_len, "input seq_len mismatch");
  nn::Vec ws(workspace_size());
  Output out;
  infer_window(alice_seq, ws.data(), out);
  return out;
}

std::vector<PredictorQuantizer::Output> PredictorQuantizer::infer_batch(
    std::span<const nn::Vec> windows) const {
  for (const auto& w : windows) {
    VKEY_REQUIRE(w.size() == cfg_.seq_len, "input seq_len mismatch");
  }
  std::vector<Output> outs(windows.size());
  if (outs.empty()) return outs;
  nn::Vec ws(workspace_size());
  for (std::size_t m = 0; m < outs.size(); ++m) {
    infer_window(windows[m], ws.data(), outs[m]);
  }
  return outs;
}

double PredictorQuantizer::evaluate_loss(
    std::span<const TrainingSample> samples) const {
  check_samples(samples, cfg_);
  double total = 0.0;
  nn::Vec mse_grad(cfg_.seq_len);  // unread
  for (const auto& s : samples) {
    const Output o = infer(s.alice_seq);
    const double mse = nn::mse_loss(o.predicted_seq, s.bob_seq, mse_grad);
    // Recompute BCE from probabilities (logits not retained): use the
    // numerically-safe clipped form.
    double bce = 0.0;
    const auto z = s.bob_bits.to_doubles();
    for (std::size_t i = 0; i < z.size(); ++i) {
      const double p = std::clamp(o.probabilities[i], 1e-12, 1.0 - 1e-12);
      bce += -(z[i] * std::log(p) + (1.0 - z[i]) * std::log(1.0 - p));
    }
    total += kTheta * mse + (1.0 - kTheta) * bce;
  }
  return total / static_cast<double>(samples.size());
}

}  // namespace vkey::core
