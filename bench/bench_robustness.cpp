// Robustness sweep — reliable key agreement over a lossy LoRa link.
//
// Sweeps the per-frame drop probability 0–40% and reports, per rate:
// establishment success over 200 trials, median virtual time-to-key,
// mean frames-per-establishment (data + retransmissions + acks), mean
// retransmissions and mean session attempts. The 0% row is the control:
// it must match the seed path — no retransmissions, and the established
// key equal to what core's reconcile-and-amplify arithmetic produces for
// the same probe material.
//
// A second sweep exercises the full key lifecycle under byte-level wire
// corruption: establish under a corrupting link, run the key-confirmation
// round trip (key_schedule.h), then a 10-second virtual data phase with
// both endpoints' rekey timers running — deliberately offset so one side
// always rekeys first and the fast-forward/grace machinery is on the hot
// path. "Continuity" means every data frame that survived the wire opened
// cleanly: zero epoch rejects, zero MAC rejects, no frame lost to a key
// mismatch across any rekey boundary.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/bench_io.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/session.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

using namespace vkey;
using namespace vkey::protocol;

namespace {

auto material_for(std::uint64_t trial) {
  return [trial](std::size_t attempt) {
    const std::uint64_t seed = hash_combine64(trial, attempt);
    const BitVec kb = random_bits(64, vkey::Rng(seed));
    return std::make_pair(with_flips(kb, 3, vkey::Rng(seed ^ 0x5a5a)), kb);
  };
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct SweepRow {
  double success_rate = 0.0;
  double median_time_ms = 0.0;
  double frames_per_establishment = 0.0;
  double retransmissions_per_trial = 0.0;
  double mean_attempts = 0.0;
};

SweepRow sweep(double drop, const core::SyndromeCode& reconciler,
               int trials) {
  SweepRow row;
  int successes = 0;
  std::vector<double> times;
  std::size_t frames = 0, retransmissions = 0, attempts = 0;
  for (int trial = 0; trial < trials; ++trial) {
    ReliabilityConfig cfg;
    cfg.radio.spreading_factor = 7;  // keep virtual timescales compact
    cfg.fault.drop_prob = drop;
    cfg.fault.seed = hash_combine64(0xbe7c, static_cast<std::uint64_t>(trial));
    cfg.arq.seed = hash_combine64(0xa9, static_cast<std::uint64_t>(trial));
    PublicChannel base;
    const auto report = run_reliable_key_agreement(
        base, reconciler, cfg, material_for(static_cast<std::uint64_t>(trial)));
    attempts += report.attempts;
    frames += report.link.sent;
    for (const auto& att : report.attempt_log) {
      retransmissions += att.alice_transport.retransmissions +
                         att.bob_transport.retransmissions;
    }
    if (report.established) {
      ++successes;
      times.push_back(report.time_to_establish_ms);
    }
  }
  row.success_rate = static_cast<double>(successes) / trials;
  row.median_time_ms = median(times);
  row.frames_per_establishment =
      successes > 0 ? static_cast<double>(frames) / successes : 0.0;
  row.retransmissions_per_trial =
      static_cast<double>(retransmissions) / trials;
  row.mean_attempts = static_cast<double>(attempts) / trials;
  return row;
}

// ------------------------------------------- wire corruption / rekey sweep

struct WireRow {
  double establishment = 0.0;  ///< agreement + confirm round trip succeeded
  double continuity = 0.0;     ///< trials where every delivered frame opened
  double crc_lost_per_trial = 0.0;   ///< frames the wire codec rejected
  double retransmissions = 0.0;      ///< confirm retransmissions per trial
  double rekeys_per_trial = 0.0;     ///< epochs crossed in the data phase
  double grace_opens_per_trial = 0.0;
};

WireRow wire_sweep(double corrupt, const core::SyndromeCode& reconciler,
                   int trials) {
  WireRow row;
  int established = 0, continuous = 0;
  std::size_t crc_lost = 0, confirm_retx = 0, rekeys = 0, grace = 0;
  for (int trial = 0; trial < trials; ++trial) {
    // Phase 1: establish the key over a byte-corrupting link (the ARQ
    // absorbs the frames the wire codec rejects).
    ReliabilityConfig cfg;
    cfg.radio.spreading_factor = 7;
    cfg.fault.corrupt_prob = corrupt;
    cfg.fault.seed = hash_combine64(0xc0de, static_cast<std::uint64_t>(trial));
    cfg.arq.seed = hash_combine64(0xa7, static_cast<std::uint64_t>(trial));
    PublicChannel base;
    const auto agreement = run_reliable_key_agreement(
        base, reconciler, cfg,
        material_for(hash_combine64(0x317e, static_cast<std::uint64_t>(trial))));
    if (!agreement.established) continue;

    // Phase 2: key schedule + confirmation round trip on a fresh link with
    // the same corruption rate.
    SimClock clock;
    PublicChannel base2;
    FaultConfig faults;
    faults.corrupt_prob = corrupt;
    faults.seed = hash_combine64(0x3172, static_cast<std::uint64_t>(trial));
    channel::LoRaParams radio;
    radio.spreading_factor = 7;
    UnreliableChannel link(clock, base2, faults, radio);

    const std::uint64_t session =
        hash_combine64(0x5e55, static_cast<std::uint64_t>(trial));
    // Offset intervals: Alice always rekeys first, so every boundary
    // exercises Bob's authenticated fast-forward and Alice's grace window.
    KeySchedule::Policy pa;
    pa.rekey_interval_ms = 3000.0;
    pa.grace_ms = 500.0;
    KeySchedule::Policy pb = pa;
    pb.rekey_interval_ms = 3400.0;
    KeySchedule alice(agreement.key, session, KeySchedule::Role::kInitiator,
                      pa);
    KeySchedule bob(agreement.key, session, KeySchedule::Role::kResponder,
                    pb);
    const auto confirm = run_key_confirmation(clock, link, alice, bob);
    confirm_retx += confirm.transmissions - 1;
    if (!confirm.confirmed) continue;
    ++established;

    // Phase 3: 10 virtual seconds of sealed traffic across ~3 rekey
    // boundaries. Frames the codec rejects die on the wire (crc_lost);
    // every frame that *arrives* must open.
    std::size_t delivered = 0, opened = 0;
    link.set_handler(UnreliableChannel::Endpoint::kBob,
                     [&](const Message& msg) {
                       if (msg.type != MessageType::kData) return;
                       ++delivered;
                       if (bob.open(msg, clock.now_ms()).has_value()) {
                         ++opened;
                       }
                     });
    link.set_handler(UnreliableChannel::Endpoint::kAlice,
                     [](const Message&) {});
    RekeyTimer alice_timer(clock, alice);
    RekeyTimer bob_timer(clock, bob);
    alice_timer.start();
    bob_timer.start();
    std::uint64_t nonce = 1;
    const std::vector<std::uint8_t> payload(16, 0x42);
    for (int i = 0; i < 50; ++i) {
      clock.schedule(200.0 * i, [&] {
        link.send(UnreliableChannel::Endpoint::kAlice,
                  alice.seal(nonce++, payload));
      });
    }
    clock.run_until(10'500.0);
    alice_timer.stop();
    bob_timer.stop();

    crc_lost += link.stats().crc_lost;
    rekeys += bob.stats().rekeys;
    grace += alice.stats().grace_opens + bob.stats().grace_opens;
    if (opened == delivered && bob.stats().epoch_rejects == 0 &&
        bob.stats().mac_rejects == 0) {
      ++continuous;
    }
  }
  row.establishment = static_cast<double>(established) / trials;
  row.continuity =
      established > 0 ? static_cast<double>(continuous) / established : 0.0;
  row.crc_lost_per_trial = static_cast<double>(crc_lost) / trials;
  row.retransmissions = static_cast<double>(confirm_retx) / trials;
  row.rekeys_per_trial = static_cast<double>(rekeys) / trials;
  row.grace_opens_per_trial = static_cast<double>(grace) / trials;
  return row;
}

/// Control: at 0% faults the reliability layer must reproduce the seed
/// path bit-for-bit (same keys, zero retransmissions). The seed path is
/// core's own arithmetic, which shares no code with the sessions: attempt 0
/// establishes iff Alice's reconciliation recovers Bob's key, and its key
/// is Bob's, amplified under the attempt's session id.
bool control_matches_seed_path(const core::SyndromeCode& reconciler) {
  const core::PrivacyAmplifier amplifier(kFinalKeyBits);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const auto material = material_for(trial);
    ReliabilityConfig cfg;
    cfg.radio.spreading_factor = 7;
    PublicChannel base;
    const auto report =
        run_reliable_key_agreement(base, reconciler, cfg, material);

    auto [ka, kb] = material(0);
    const bool seed_established =
        reconciler.reconcile(ka, reconciler.encode_bob(kb)) == kb;

    // Compare the FIRST attempt against the seed path: session recovery may
    // legitimately rescue a trial whose attempt-0 probe material is beyond
    // the reconciler (fresh material on attempt 1), which the single-shot
    // seed path cannot do.
    if (report.attempt_log.empty()) return false;
    const AttemptReport& first = report.attempt_log.front();
    if (first.established != seed_established) return false;
    if (first.established &&
        report.key != amplifier.amplify(kb, first.session_id)) {
      return false;
    }
    for (const auto& att : report.attempt_log) {
      if (att.alice_transport.retransmissions != 0 ||
          att.bob_transport.retransmissions != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("robustness", argc, argv);
  const int trials = static_cast<int>(report.scaled(200, 40));
  // The sessions' public syndrome code: 64-bit keys, the default seed.
  const core::SyndromeCode reconciler(64, 11);

  Table t({"drop rate", "success rate", "median time-to-key [virt ms]",
           "frames / establishment", "retx / trial", "mean attempts"});
  for (const double drop : {0.0, 0.05, 0.10, 0.20, 0.30, 0.40}) {
    const SweepRow row = sweep(drop, reconciler, trials);
    t.add_row({Table::pct(drop), Table::pct(row.success_rate),
               Table::fmt(row.median_time_ms, 1),
               Table::fmt(row.frames_per_establishment, 1),
               Table::fmt(row.retransmissions_per_trial, 2),
               Table::fmt(row.mean_attempts, 2)});
  }
  const std::string caption =
      "Robustness: key establishment vs frame drop rate (" +
      std::to_string(trials) + " trials/rate, SF7 virtual link)";
  t.print(caption);
  report.add_table("robustness_drop_sweep", caption, t);

  const int wire_trials = static_cast<int>(report.scaled(100, 20));
  Table wt({"corrupt rate", "establishment", "rekey continuity",
            "crc-lost / trial", "confirm retx / trial", "rekeys / trial",
            "grace opens / trial"});
  for (const double corrupt : {0.0, 0.02, 0.05, 0.10}) {
    const WireRow row = wire_sweep(corrupt, reconciler, wire_trials);
    wt.add_row({Table::pct(corrupt), Table::pct(row.establishment),
                Table::pct(row.continuity),
                Table::fmt(row.crc_lost_per_trial, 2),
                Table::fmt(row.retransmissions, 2),
                Table::fmt(row.rekeys_per_trial, 2),
                Table::fmt(row.grace_opens_per_trial, 2)});
  }
  const std::string wire_caption =
      "Wire robustness: full lifecycle (establish + confirm + rekeyed data "
      "phase) vs byte-corruption rate (" +
      std::to_string(wire_trials) + " trials/rate, SF7 virtual link)";
  wt.print(wire_caption);
  report.add_table("robustness_wire_sweep", wire_caption, wt);

  const bool control_ok = control_matches_seed_path(reconciler);
  std::printf("\n0%%-drop control matches seed path (same keys, zero "
              "retransmissions): %s\n",
              control_ok ? "yes" : "NO");
  report.add_note("control_matches_seed_path", control_ok ? "yes" : "NO");
  report.write();
  return control_ok ? 0 : 1;
}
