// Fig. 15 — security analysis: eavesdropping and imitating attacks.
//
// (a) Eavesdropping: Eve records y_Bob from the public channel and feeds it
//     to the public decoder with her own channel-derived key material (the
//     paper's attack: one decoder pass). Paper shape: ~42-51% agreement.
// (b) Imitating: Eve follows Alice's route, runs the identical pipeline on
//     her own observations of Bob's transmissions. Paper shape: legitimate
//     ~99% vs Eve ~48-54%.
// Additionally reported: Eve running the protocol's own iterative decode on
// y_Bob (the encoder, the Bloom parameters and the decode are public) — a
// strictly stronger attack than the paper evaluates — with her mean
// agreement and the blocks she recovers exactly. It gains some bits and a
// rare block; a wrong key is caught by MAC/key confirmation.
#include <vector>

#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "core/reconciler.h"
#include "protocol/session.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

struct SecurityRow {
  double legit_kar = 0.0;
  double eve_one_shot = 0.0;
  double eve_iterative = 0.0;
  std::size_t eve_exact = 0;  ///< blocks the iterative decode recovers
  std::size_t blocks = 0;
};

SecurityRow evaluate(const BenchReport& report,
                     const AutoencoderReconciler& decoder, ScenarioKind kind,
                     std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.trace.scenario = make_scenario(kind, 50.0);
  cfg.trace.seed = seed;
  cfg.predictor.hidden = 24;
  cfg.predictor_epochs = report.scaled(20, 5);
  KeyGenPipeline pipeline(cfg);
  const auto m =
      pipeline.run(report.scaled(500, 100), report.scaled(450, 110));
  // The paper's attack: one pass of g on y_Bob with Eve's material. The
  // decoder's encoder is the pipeline's public code, so y_Bob is the same.
  std::vector<double> one_shot;
  one_shot.reserve(m.blocks);
  for (const auto& blk : pipeline.blocks()) {
    one_shot.push_back(
        decoder.reconcile_one_shot(blk.eve_raw, decoder.encode_bob(blk.bob_key))
            .agreement(blk.bob_key));
  }
  return {m.mean_kar_post, vkey::stats::mean(one_shot),
          m.mean_eve_kar_iterative, m.eve_exact_blocks_iterative, m.blocks};
}

/// Replay-defense diagnostic: the session layer distinguishes a benign ARQ
/// retransmission (bit-identical frame, re-elicits the cached response,
/// surfaced as kDuplicate) from a forged replay (same nonce, different
/// content, rejected as kReplayedNonce). Both leave the state machine
/// untouched, so neither gives an attacker a foothold.
void print_replay_diagnostics(BenchReport& report) {
  using namespace vkey::protocol;
  const SyndromeCode reconciler(64, 11);
  SessionConfig scfg;
  BobSession bob(scfg, reconciler, random_bits(64, vkey::Rng(0x515)));

  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = scfg.session_id;
  req.nonce = 1;
  const auto first = bob.handle(req);
  const auto retransmit = bob.handle(req);
  const RejectReason dup_reason = bob.last_reject();
  Message forged = req;
  forged.payload = {0xde, 0xad};
  const auto replay = bob.handle(forged);
  const RejectReason replay_reason = bob.last_reject();

  Table t({"inbound frame", "response", "classification", "state disturbed"});
  t.add_row({"KeyGenRequest (fresh)", first ? "KeyGenAccept" : "none",
             "accepted", "no"});
  t.add_row({"bit-identical retransmission",
             retransmit ? "cached KeyGenAccept" : "none",
             to_string(dup_reason), "no"});
  t.add_row({"forged frame under seen nonce", replay ? "responded" : "none",
             to_string(replay_reason), "no"});
  const std::string caption = "Replay defense: ARQ duplicates vs forged replays";
  t.print(caption);
  report.add_table("fig15_replay", caption, t);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig15_security", argc, argv);
  // The pipelines reconcile on the public code; the paper's attack needs
  // its decoder g (64 units, the default). One serves every scenario: it
  // trains on synthetic pairs, so nothing in it depends on the channel.
  AutoencoderReconciler decoder{ReconcilerConfig{}};
  decoder.train(report.scaled(3000, 600), report.scaled(25, 6));
  Table t({"environment", "legitimate KAR", "Eve (eavesdrop, one-shot)",
           "Eve (iterative decoder)", "Eve exact blocks (iterative)"});
  // The paper aggregates to urban vs rural; report per scenario and the
  // aggregate rows.
  double urban_legit = 0, urban_eve = 0, rural_legit = 0, rural_eve = 0;
  for (const auto kind : kAllScenarios) {
    const SecurityRow r = evaluate(report, decoder, kind,
                                   80 + static_cast<std::uint64_t>(kind));
    t.add_row({to_string(kind), Table::pct(r.legit_kar),
               Table::pct(r.eve_one_shot), Table::pct(r.eve_iterative),
               std::to_string(r.eve_exact) + " / " +
                   std::to_string(r.blocks)});
    const ScenarioConfig sc = make_scenario(kind, 50.0);
    if (sc.is_urban()) {
      urban_legit += r.legit_kar / 2.0;
      urban_eve += r.eve_one_shot / 2.0;
    } else {
      rural_legit += r.legit_kar / 2.0;
      rural_eve += r.eve_one_shot / 2.0;
    }
  }
  t.add_row({"Urban (mean)", Table::pct(urban_legit), Table::pct(urban_eve),
             "-", "-"});
  t.add_row({"Rural (mean)", Table::pct(rural_legit), Table::pct(rural_eve),
             "-", "-"});
  const std::string caption =
      "Fig. 15: security analysis — legitimate vs eavesdropper agreement";
  t.print(caption);
  report.add_table("fig15_security", caption, t);
  std::printf(
      "\nAt ~50%% per-bit agreement the probability of reproducing a "
      "128-bit amplified key is ~2^-128; any residual advantage is "
      "destroyed by privacy amplification, and a wrong key fails the MAC / "
      "key-confirmation handshake.\n\n");
  print_replay_diagnostics(report);
  report.write();
  return 0;
}
