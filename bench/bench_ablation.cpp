// Ablation study of the design choices DESIGN.md calls out.
//
// Not a paper figure — this bench justifies the reproduction's engineering
// decisions by measuring what each one buys:
//   A1. mirrored reciprocal-zone pairing vs naive same-position pairing
//   A2. number of reciprocal windows per packet (rate/quality trade)
//   A3. tied vs untied reconciler encoders
//   A4. frozen (random-projection) vs jointly-trained encoder
//   A5. scoring every flip vs the decoder's shortlist vs the one-shot
//       decoder pass
//   A6. float vs int8 predictor inference (PredictorConfig::quantized)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/quantizer.h"
#include "core/reconciler.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

std::vector<ProbeRound> make_trace(std::uint64_t seed, std::size_t rounds) {
  TraceConfig cfg;
  cfg.scenario = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  cfg.device_eve = dragino_lora_shield();
  cfg.seed = seed;
  TraceGenerator gen(cfg);
  return gen.generate(rounds);
}

double quantized_agreement(const ArRssiStreams& st) {
  MultiBitQuantizer q({.bits_per_sample = 1, .block_size = 16,
                       .guard_band_ratio = 0.0});
  return q.quantize(st.alice).bits.agreement(q.quantize(st.bob).bits);
}

struct ReconcilerScore {
  double kar;
  double success;
  double eve;
};

/// How a score corrects a key: the protocol's beam decode, the
/// decoder-guided greedy decode, or one decoder pass.
enum class Decode { kBeam, kGuided, kOneShot };

BitVec correct(const AutoencoderReconciler& rec, Decode decode,
               const BitVec& key, std::span<const double> y) {
  switch (decode) {
    case Decode::kBeam:
      return rec.reconcile(key, y);
    case Decode::kGuided:
      return key ^ rec.decode_guided(key, y).mismatch;
    case Decode::kOneShot:
      return rec.reconcile_one_shot(key, y);
  }
  return key;
}

ReconcilerScore score_reconciler(const AutoencoderReconciler& rec,
                                 Decode decode, std::uint64_t seed,
                                 int trials) {
  vkey::Rng rng(seed);
  const std::size_t n = rec.config().key_bits;
  double kar = 0.0, succ = 0.0, eve = 0.0;
  for (int t = 0; t < trials; ++t) {
    BitVec kb(n), ke(n);
    for (std::size_t i = 0; i < n; ++i) {
      kb.set(i, rng.bernoulli(0.5));
      ke.set(i, rng.bernoulli(0.5));
    }
    const BitVec ka = with_noise(kb, 0.06, rng);
    const auto y = rec.encode_bob(kb);
    const BitVec fixed = correct(rec, decode, ka, y);
    kar += fixed.agreement(kb);
    succ += fixed == kb;
    eve += correct(rec, decode, ke, y).agreement(kb);
  }
  return {kar / trials, succ / trials, eve / trials};
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("ablation", argc, argv);
  const int trials = static_cast<int>(report.scaled(150, 40));
  const auto rounds = make_trace(123, report.scaled(300, 80));
  const ArRssiExtractor ex(0.04);

  // --- A1: pairing strategy ---
  {
    const auto mirrored = extract_streams(rounds, ex, 4);
    // Naive pairing: same head windows on both sides (no mirroring).
    ArRssiStreams naive;
    for (const auto& r : rounds) {
      const auto a = ex.sequence(r.alice_rx.rrssi);
      const auto b = ex.sequence(r.bob_rx.rrssi);
      const auto e = ex.sequence(r.eve_rx_bob_tx.rrssi);
      for (std::size_t j = 0; j < 4; ++j) {
        naive.alice.push_back(a[j]);
        naive.bob.push_back(b[j]);
        naive.eve.push_back(e[j]);
      }
    }
    Table t({"pairing", "stream correlation", "1-bit agreement"});
    t.add_row({"mirrored reciprocal-zone",
               Table::fmt(stats::pearson(mirrored.alice, mirrored.bob), 3),
               Table::pct(quantized_agreement(mirrored))});
    t.add_row({"naive same-position",
               Table::fmt(stats::pearson(naive.alice, naive.bob), 3),
               Table::pct(quantized_agreement(naive))});
    const std::string caption = "A1: window pairing strategy (V2V urban, 50 km/h)";
    t.print(caption);
    report.add_table("ablation_a1_pairing", caption, t);
    std::printf("\n");
  }

  // --- A2: reciprocal windows per packet ---
  {
    Table t({"windows/packet", "bits/round", "1-bit agreement"});
    for (std::size_t k : {1u, 2u, 4u, 6u, 8u}) {
      const auto st = extract_streams(rounds, ex, k);
      t.add_row({std::to_string(k), std::to_string(k),
                 Table::pct(quantized_agreement(st))});
    }
    const std::string caption = "A2: reciprocal-zone width (rate vs agreement)";
    t.print(caption);
    report.add_table("ablation_a2_windows", caption, t);
    std::printf("\n");
  }

  // --- A3/A4: encoder configuration ---
  {
    Table t({"encoder", "KAR @6% BER", "exact blocks", "Eve"});
    struct Cfg {
      const char* name;
      bool tie;
      bool freeze;
    };
    for (const Cfg c : {Cfg{"tied + frozen (default)", true, true},
                        Cfg{"tied + trained", true, false},
                        Cfg{"untied + trained (paper fig. 7)", false,
                            false}}) {
      ReconcilerConfig rc;
      rc.tie_encoders = c.tie;
      rc.freeze_encoder = c.freeze;
      rc.decoder_units = 64;
      AutoencoderReconciler rec(rc);
      rec.train(report.scaled(2500, 600), report.scaled(25, 6));
      const auto s = score_reconciler(rec, Decode::kBeam, 7, trials);
      t.add_row({c.name, Table::pct(s.kar), Table::pct(s.success),
                 Table::pct(s.eve)});
    }
    const std::string caption = "A3/A4: reconciler encoder ablation";
    t.print(caption);
    report.add_table("ablation_a3_a4_encoder", caption, t);
    std::printf("\n");
  }

  // --- A5: decode strategy ---
  {
    ReconcilerConfig rc;
    rc.decoder_units = 64;
    AutoencoderReconciler rec(rc);
    rec.train(report.scaled(2500, 600), report.scaled(25, 6));
    Table t({"decode", "KAR @6% BER", "exact blocks", "Eve"});
    for (const auto& [name, decode] :
         {std::pair{"beam of 8 within 14 flips (default)", Decode::kBeam},
          std::pair{"greedy, decoder shortlist", Decode::kGuided},
          std::pair{"one-shot decoder pass", Decode::kOneShot}}) {
      const auto s = score_reconciler(rec, decode, 9, trials);
      t.add_row({name, Table::pct(s.kar), Table::pct(s.success),
                 Table::pct(s.eve)});
    }
    const std::string caption = "A5: decoding strategy (same trained model)";
    t.print(caption);
    report.add_table("ablation_a5_decode", caption, t);
    std::printf("\n");
  }

  // --- A6: int8 predictor inference ---
  {
    // One trained model, evaluated through both inference paths on held-out
    // windows. The quantity of interest is the key-agreement cost of the
    // fast path: KAR vs Bob for each path, how many of Alice's key bits the
    // int8 path flips relative to float, and the largest probability
    // perturbation (bits only flip where the float probability already sat
    // near the 0.5 threshold).
    const auto st = extract_streams(rounds, ex, 4);
    DatasetConfig ds;
    ds.stride = 4;  // overlap to stretch the small bench trace
    const auto samples = make_samples(st, ds);
    const std::size_t n_train = samples.size() * 3 / 4;
    const std::span<const TrainingSample> train(samples.data(), n_train);
    const std::span<const TrainingSample> eval(samples.data() + n_train,
                                               samples.size() - n_train);
    PredictorConfig pc;
    PredictorQuantizer pred(pc);
    pred.train(train, report.scaled(20, 5));

    struct PathScore {
      double kar = 0.0;
      std::size_t flips = 0;
      double max_dp = 0.0;
    };
    PathScore fl, q8;
    std::size_t bits_total = 0;
    for (const auto& s : eval) {
      pred.set_quantized(false);
      const auto of = pred.infer(s.alice_seq);
      pred.set_quantized(true);
      const auto oq = pred.infer(s.alice_seq);
      fl.kar += of.bits.agreement(s.bob_bits);
      q8.kar += oq.bits.agreement(s.bob_bits);
      bits_total += of.bits.size();
      for (std::size_t i = 0; i < of.bits.size(); ++i) {
        q8.flips += of.bits.get(i) != oq.bits.get(i);
        q8.max_dp = std::max(
            q8.max_dp, std::fabs(of.probabilities[i] - oq.probabilities[i]));
      }
    }
    pred.set_quantized(false);
    const double ne = static_cast<double>(eval.size());
    Table t({"inference path", "KAR vs Bob", "bits flipped vs float",
             "max |dp|"});
    t.add_row({"float (bit-exact reference)", Table::pct(fl.kar / ne), "0",
               "0"});
    t.add_row({"int8 + polynomial gates", Table::pct(q8.kar / ne),
               std::to_string(q8.flips) + " / " + std::to_string(bits_total),
               Table::fmt(q8.max_dp, 4)});
    const std::string caption =
        "A6: int8 predictor inference (same trained model, held-out windows)";
    t.print(caption);
    report.add_table("ablation_a6_int8", caption, t);
  }
  report.write();
  return 0;
}
