// Fig. 11 — autoencoder reconciliation vs the CS-based method.
//
// Sweeps the decoder hidden width (AE-16 .. AE-128), each row decoding
// with its trained decoder shortlisting the flips (decode_guided), and
// compares against the compressed-sensing reconciliation of LoRa-Key
// (random sensing matrix + OMP). Reported per method: post-reconciliation
// key agreement rate (mean ± std over key blocks at channel-realistic
// mismatch rates) and the computation cost (multiply-accumulates per
// reconciled block). Paper shape: agreement grows with decoder width,
// every AE size beats CS, and the AE decode is roughly an order of
// magnitude cheaper. An extra row gives the decode the protocol runs, a
// beam that scores every flip of 8 working keys against the encoder and
// runs no decoder layer.
#include <vector>

#include "common/bench_io.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/reconciler.h"
#include "cs/compressed_sensing.h"
#include "ecc/bch.h"

using namespace vkey;
using namespace vkey::core;

namespace {

constexpr std::size_t kKeyBits = 64;

// Mismatch rates representative of the channel after arRSSI + prediction.
constexpr double kBerLevels[] = {0.03, 0.06, 0.09};

struct Sample {
  BitVec bob;
  BitVec alice;
};

std::vector<Sample> make_pairs(std::uint64_t seed, std::size_t trials) {
  vkey::Rng rng(seed);
  std::vector<Sample> out;
  for (std::size_t t = 0; t < trials; ++t) {
    Sample s;
    s.bob = random_bits(kKeyBits, rng);
    s.alice = with_noise(s.bob, kBerLevels[t % 3], rng);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig11_reconciliation", argc, argv);
  const auto pairs = make_pairs(77, report.scaled(3000, 150));

  Table t({"method", "agreement", "std", "cost (MAC ops/block)"});

  for (std::size_t units : {16u, 32u, 64u, 128u}) {
    ReconcilerConfig cfg;
    cfg.key_bits = kKeyBits;
    cfg.decoder_units = units;
    cfg.seed = 5;
    AutoencoderReconciler rec(cfg);
    rec.train(report.scaled(3000, 600), report.scaled(30, 8));

    std::vector<double> kar;
    std::size_t total_macs = 0;
    for (const auto& p : pairs) {
      const auto y = rec.encode_bob(p.bob);
      const auto d = rec.decode_guided(p.alice, y);
      kar.push_back((p.alice ^ d.mismatch).agreement(p.bob));
      total_macs += d.iterations * rec.decode_flops();
    }
    t.add_row({"AE-" + std::to_string(units),
               Table::pct(stats::mean(kar)),
               Table::pct(stats::sample_stddev(kar), 2),
               std::to_string(total_macs / pairs.size())});
  }

  {
    // The protocol's decode reads only the frozen encoder, which the seed
    // alone fixes, so it needs no training and is the same for every
    // decoder width. Its cost is what DecodeResult::macs counts: Alice's
    // encoding and her residual's dot products with every encoder column
    // (2 N M), then each pass's score per flip per state and N Gram-row
    // updates per state kept, and one re-encoding of a converged winner.
    // The encoder's Gram matrix (N^2 M) is set-up, formed once per code.
    ReconcilerConfig cfg;
    cfg.key_bits = kKeyBits;
    cfg.seed = 5;
    const AutoencoderReconciler rec(cfg);
    std::vector<double> kar;
    std::size_t total_macs = 0;
    for (const auto& p : pairs) {
      const auto d = rec.decode_mismatch(p.alice, rec.encode_bob(p.bob));
      kar.push_back((p.alice ^ d.mismatch).agreement(p.bob));
      total_macs += d.macs;
    }
    t.add_row({"beam of 8 within 14 flips (protocol)",
               Table::pct(stats::mean(kar)),
               Table::pct(stats::sample_stddev(kar), 2),
               std::to_string(total_macs / pairs.size())});
  }

  {
    // CS baseline: the paper's 20 x 64 random matrix with OMP decoding.
    const Matrix phi = cs::make_sensing_matrix(20, kKeyBits, 11);
    std::vector<double> kar;
    std::size_t total_macs = 0;
    for (const auto& p : pairs) {
      const auto syn = cs::cs_syndrome(phi, p.bob);
      const auto r = cs::cs_reconcile(phi, p.alice, syn, 10);
      kar.push_back(r.corrected.agreement(p.bob));
      // Per OMP iteration: a full correlation sweep (M*N) plus the
      // least-squares solve (~ M*k^2 with k = iteration index; bound k by
      // the sparsity budget 10).
      total_macs += r.iterations * (20 * kKeyBits + 20 * 10 * 10);
    }
    t.add_row({"CS (20x64 + OMP)",
               Table::pct(stats::mean(kar)),
               Table::pct(stats::sample_stddev(kar), 2),
               std::to_string(total_macs / pairs.size())});
  }

  {
    // Extra row beyond the paper: classic code-offset reconciliation with
    // BCH(127, 64, t=10) — the "error-correction code" family the paper
    // cites as prior work. Strong but leaks 63 of 64 net bits.
    const ecc::BchReconciler bch(7, 10, kKeyBits);
    std::vector<double> kar;
    std::size_t total_macs = 0;
    for (const auto& p : pairs) {
      const auto helper = bch.helper_data(p.bob);
      const auto fixed = bch.reconcile(p.alice, helper);
      kar.push_back(fixed.has_value() ? fixed->agreement(p.bob)
                                      : p.alice.agreement(p.bob));
      // Syndrome computation dominates: 2t syndromes x n field MACs.
      total_macs += static_cast<std::size_t>(2 * bch.code().t()) *
                    static_cast<std::size_t>(bch.code().n());
    }
    t.add_row({"BCH(127,64,t=10) code-offset",
               Table::pct(stats::mean(kar)),
               Table::pct(stats::sample_stddev(kar), 2),
               std::to_string(total_macs / pairs.size())});
  }

  const std::string caption =
      "Fig. 11: reconciliation quality and cost "
      "(64-bit blocks, BER in {3%, 6%, 9%}; BCH row is an extra "
      "comparison beyond the paper)";
  t.print(caption);
  report.add_table("fig11_reconciliation", caption, t);
  report.write();
  return 0;
}
