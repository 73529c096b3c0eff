// Attacker toolkit for the security analysis (paper Sec. V-H).
//
// Eve has full protocol knowledge: the trained models, the Bloom/session
// parameters and everything on the public channel. What she lacks is the
// legitimate channel's small-scale fading. The helpers here implement the
// paper's two evaluated attacks plus the two "handled by construction"
// attacks (MITM, replay) whose rejection the tests verify:
//
//  * Eavesdropping attack: record every frame on the channel as sent
//    (record_transcript), pull y_Bob from the recording and run the public
//    decoder against Eve's own key material (Fig. 15(a): ~50% agreement).
//  * Imitating attack: drive Eve's channel observations (she followed
//    Alice's route) through the same pipeline (Fig. 15(b)).
//  * MITM: intercept and perturb the syndrome (install_syndrome_tamper);
//    Alice's MAC check must fail.
//  * Replay: hand a session a captured frame again; the nonce window
//    suppresses a bit-identical copy and rejects a modified one.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "core/reconciler.h"
#include "protocol/channel.h"

namespace vkey::protocol {

/// Passive eavesdropping: install an interceptor that appends every frame
/// on `channel` to `transcript` as sent, oldest first, then delivers it.
/// It replaces any installed interceptor (an attacker that also tampers
/// writes one that does both). `transcript` must outlive the traffic.
void record_transcript(PublicChannel& channel,
                       std::vector<Message>& transcript);

/// The first syndrome message of a recorded transcript.
std::optional<Message> find_syndrome(std::span<const Message> transcript);

/// Eavesdropping attack: Eve decodes y_Bob with her own key material using
/// the public syndrome code. Returns her corrected-key guess.
BitVec eavesdrop_attack(const core::SyndromeCode& reconciler,
                        const BitVec& eve_key, const Message& syndrome);

/// Install a MITM interceptor that perturbs every syndrome payload in
/// flight (flips one byte) while passing other traffic through.
void install_syndrome_tamper(PublicChannel& channel);

}  // namespace vkey::protocol
