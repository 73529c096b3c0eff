#include "baselines/cascade.h"

#include <deque>
#include <numeric>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::baselines {

namespace {

/// Han et al.'s setting, which the paper's comparison uses: the first pass
/// splits the key into blocks of k = 3 bits, and each of the 4 passes
/// doubles the block length.
constexpr std::size_t kInitialBlock = 3;
constexpr std::size_t kPasses = 4;

/// The interaction budget: parity messages exchanged before Cascade stops
/// (see the header).
constexpr std::size_t kMaxMessages = 200;

/// Positions of one iteration laid out in permuted order, partitioned into
/// blocks of `block_len` (last block may be shorter).
struct IterationLayout {
  std::vector<std::size_t> order;        // permuted position list
  std::vector<std::size_t> block_of;     // position -> block id
  std::vector<std::vector<std::size_t>> blocks;  // block id -> positions
};

IterationLayout make_layout(std::size_t n, std::size_t block_len,
                            vkey::Rng& rng, bool identity) {
  IterationLayout lay;
  lay.order.resize(n);
  std::iota(lay.order.begin(), lay.order.end(), 0);
  if (!identity) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(lay.order[i - 1],
                lay.order[static_cast<std::size_t>(rng.uniform_int(i))]);
    }
  }
  lay.block_of.resize(n);
  for (std::size_t i = 0; i < n; i += block_len) {
    const std::size_t len = std::min(block_len, n - i);
    std::vector<std::size_t> blk(lay.order.begin() + static_cast<std::ptrdiff_t>(i),
                                 lay.order.begin() +
                                     static_cast<std::ptrdiff_t>(i + len));
    const std::size_t id = lay.blocks.size();
    for (std::size_t p : blk) lay.block_of[p] = id;
    lay.blocks.push_back(std::move(blk));
  }
  return lay;
}

}  // namespace

CascadeResult cascade_reconcile(const BitVec& alice, const BitVec& bob,
                                std::uint64_t seed) {
  VKEY_REQUIRE(alice.size() == bob.size(), "cascade key size mismatch");
  const std::size_t n = alice.size();

  CascadeResult result{alice, 0, 0};
  BitVec& work = result.corrected;
  vkey::Rng rng(seed);

  std::vector<IterationLayout> layouts;

  auto budget_left = [&] { return result.messages < kMaxMessages; };

  auto block_parity_diff = [&](const std::vector<std::size_t>& blk) {
    std::uint8_t diff = 0;
    for (std::size_t p : blk) {
      diff ^= static_cast<std::uint8_t>(work.get(p) ^ bob.get(p));
    }
    ++result.messages;  // Bob discloses this block's parity
    ++result.leaked_bits;
    return diff != 0;
  };

  // Binary search inside a block (in its permuted order) to locate one
  // mismatching position; flips it in `work` and returns it.
  auto binary_search_fix = [&](const std::vector<std::size_t>& blk) {
    std::size_t lo = 0, hi = blk.size();
    while (hi - lo > 1 && budget_left()) {
      const std::size_t mid = lo + (hi - lo) / 2;
      std::uint8_t diff = 0;
      for (std::size_t i = lo; i < mid; ++i) {
        diff ^= static_cast<std::uint8_t>(work.get(blk[i]) ^ bob.get(blk[i]));
      }
      ++result.messages;  // Bob discloses the half-block parity
      ++result.leaked_bits;
      if (diff != 0) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    const std::size_t pos = blk[lo];
    work.flip(pos);
    return pos;
  };

  for (std::size_t it = 0; it < kPasses; ++it) {
    const std::size_t block_len = kInitialBlock << it;
    layouts.push_back(make_layout(n, std::min(block_len, n), rng,
                                  /*identity=*/it == 0));
    const IterationLayout& lay = layouts.back();

    if (!budget_left()) break;

    // Queue of (iteration, block id) pairs needing correction.
    std::deque<std::pair<std::size_t, std::size_t>> queue;
    for (std::size_t b = 0; b < lay.blocks.size() && budget_left(); ++b) {
      if (block_parity_diff(lay.blocks[b])) queue.emplace_back(it, b);
    }

    while (!queue.empty() && budget_left()) {
      const auto [qit, qb] = queue.front();
      queue.pop_front();
      const auto& blk = layouts[qit].blocks[qb];
      // Parity may have been fixed by a cascaded correction already.
      std::uint8_t diff = 0;
      for (std::size_t p : blk) {
        diff ^= static_cast<std::uint8_t>(work.get(p) ^ bob.get(p));
      }
      if (diff == 0) continue;
      const std::size_t fixed = binary_search_fix(blk);

      // Cascade: earlier iterations' blocks containing `fixed` flip parity.
      for (std::size_t j = 0; j <= it; ++j) {
        if (j == qit) continue;
        const std::size_t jb = layouts[j].block_of[fixed];
        std::uint8_t jdiff = 0;
        for (std::size_t p : layouts[j].blocks[jb]) {
          jdiff ^= static_cast<std::uint8_t>(work.get(p) ^ bob.get(p));
        }
        if (jdiff != 0) queue.emplace_back(j, jb);
      }
    }
  }
  return result;
}

}  // namespace vkey::baselines
