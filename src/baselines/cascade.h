// Cascade information reconciliation (Brassard & Salvail, EUROCRYPT '93),
// the error-correction stage of the Han et al. baseline.
//
// Alice corrects her key toward Bob's by comparing block parities over
// several iterations with fresh random permutations; an odd-parity block is
// binary-searched to locate one flip, and the cascade effect re-checks
// earlier iterations' blocks containing the corrected position.
//
// The simulation runs both sides locally but faithfully accounts the
// interaction: every parity Bob discloses is one message and one leaked bit
// (leaked bits are subtracted from the net key rate; the multi-round
// interaction is the communication-overhead drawback the paper cites).
// LoRa's duty-cycled, tens-of-bps uplink cannot carry unbounded parity
// traffic, so the protocol stops after 200 parity messages and leaves any
// remaining mismatches uncorrected.
#pragma once

#include <cstdint>

#include "common/bitvec.h"

namespace vkey::baselines {

struct CascadeResult {
  BitVec corrected;        ///< Alice's key after reconciliation
  std::size_t messages = 0;     ///< parity-exchange messages
  std::size_t leaked_bits = 0;  ///< parity bits disclosed to the channel
};

/// Reconcile `alice` toward `bob` (sizes must match) at Han et al.'s
/// setting: initial block length k = 3, doubled on each of 4 passes.
/// `seed` is the permutation seed both sides share.
CascadeResult cascade_reconcile(const BitVec& alice, const BitVec& bob,
                                std::uint64_t seed = 33);

}  // namespace vkey::baselines
