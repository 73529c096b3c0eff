#include "core/reconciler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/small_buffer.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vkey::core {

namespace {

constexpr std::size_t kDecoderLayers = 3;  ///< tanh layers of g (paper)
constexpr double kLearningRate = 2e-3;
constexpr std::size_t kBatchSize = 32;
/// Bit-disagreement rates of the synthetic training pairs (uniform).
constexpr double kTrainBerLo = 0.0;
constexpr double kTrainBerHi = 0.20;
/// Decoding budget in passes, for both decodes (see the header).
constexpr std::size_t kMaxDecodeIterations = 40;
/// The protocol decode's beam: the states it keeps between passes, and its
/// design radius, the most net flips it returns (key_bits * 7 / 32: 14 of
/// 64, between Alice's ~17% attempt-0 mismatch and Eve's ~49%).
constexpr std::size_t kBeamWidth = 8;
constexpr std::size_t decode_radius(std::size_t key_bits) {
  return key_bits * 7 / 32;
}
/// A residual energy at or below this is the exact key: the syndrome
/// travels as data, so Bob's key leaves rounding error alone.
constexpr double kConverged = 1e-9;
/// The score of a flip the radius rules out: it never enters the beam.
constexpr double kNever = std::numeric_limits<double>::infinity();
/// Flips a decoder-guided pass scores (see decode_guided in the header).
constexpr std::size_t kShortlist = 16;
constexpr std::uint64_t kBloomSeed = 0x5e551011;  ///< public Bloom parameters

/// Per-key-bit doubles and bytes, inline for every key a BitVec holds
/// inline.
using KeyScratch = SmallBuffer<double, BitVec::kInlineBits>;
using KeyBits = SmallBuffer<std::uint8_t, BitVec::kInlineBits>;

/// `bits` as 0.0 / 1.0 encoder inputs.
void load_bits(const BitVec& bits, KeyScratch& out) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i] = bits.get(i) ? 1.0 : 0.0;
  }
}

void check_widths(std::size_t key_bits, const BitVec& key_alice,
                  std::span<const double> y_bob) {
  VKEY_REQUIRE(key_alice.size() == key_bits, "key width mismatch");
  VKEY_REQUIRE(y_bob.size() == kCodeDim, "syndrome width mismatch");
}

/// decode_guided's greedy loop; `candidates(h, score)` calls score(i) for
/// each flip position i a pass considers, in order.
///
/// The syndrome travels as data (not over a noisy analog channel), so
/// h = y_Bob - f1(K'_work) vanishes exactly when the working key matches
/// Bob's. f1 is public and linear: flipping bit i of the working key
/// changes h by -(1 - 2 w_i) * W_col_i, so the post-flip residual is
/// ||h||^2 - 2 s_i <h, W_col_i> + ||W_col_i||^2, one dot product given the
/// column norms, which are worked out once per call.
/// Each pass works out every column's dot product in one sweep over W,
/// then commits the considered flip that shrinks ||h|| the most (the first
/// of equals). A pass that cannot shrink the residual ends the loop, so a
/// wrong greedy step can be undone but never loops forever.
template <typename Candidates>
SyndromeCode::DecodeResult greedy_decode(
    const nn::Dense& encoder, const PositionPreservingBloom& bloom,
    const BitVec& key_alice, std::span<const double> y_bob,
    Candidates&& candidates) {
  const std::size_t n = key_alice.size();
  const double* w = encoder.weights().value.data();  // kCodeDim x n
  BitVec work = bloom.apply(key_alice);
  BitVec delta(n);

  // The residual h of Alice's encoding; `dots` first holds the encoder's
  // input, then each pass's <h, W_col_i>.
  KeyScratch norms(n), dots(n);
  load_bits(work, dots);
  std::array<double, kCodeDim> h{};
  encoder.infer_into(dots.data(), h.data());
  double h_norm2 = 0.0;
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    h[r] = y_bob[r] - h[r];
    h_norm2 += h[r] * h[r];
  }
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    const double* row = w + r * n;
    for (std::size_t i = 0; i < n; ++i) norms[i] += row[i] * row[i];
  }
  const double initial_norm2 = h_norm2;
  BitVec best_delta = delta;
  double best_norm2 = h_norm2;
  std::size_t iters = 0;

  while (iters < kMaxDecodeIterations && h_norm2 > kConverged) {
    ++iters;
    std::fill(dots.begin(), dots.end(), 0.0);
    for (std::size_t r = 0; r < kCodeDim; ++r) {
      const double* row = w + r * n;
      for (std::size_t i = 0; i < n; ++i) dots[i] += h[r] * row[i];
    }
    std::size_t best_pos = n;
    double pick_norm2 = h_norm2 - 1e-12;
    double best_sign = 0.0;
    candidates(std::span<const double>(h), [&](std::size_t i) {
      const double s = work.get(i) ? -1.0 : 1.0;  // 1 - 2 w_i
      const double cand_norm2 = h_norm2 - 2.0 * s * dots[i] + norms[i];
      if (cand_norm2 < pick_norm2) {
        pick_norm2 = cand_norm2;
        best_pos = i;
        best_sign = s;
      }
    });
    if (best_pos == n) break;  // no flip improves the residual

    for (std::size_t r = 0; r < kCodeDim; ++r) {
      h[r] -= best_sign * w[r * n + best_pos];
    }
    h_norm2 = pick_norm2;
    work.flip(best_pos);
    delta.flip(best_pos);
    // Track the best state reached (used if we fail to fully converge).
    if (h_norm2 < best_norm2) {
      best_norm2 = h_norm2;
      best_delta = delta;
    }
  }

  // Convergence gate: a mismatch inside the design radius drives the
  // residual to (near) zero — the syndrome is exact. If the residual never
  // collapsed, the mismatch was denser than the code can localize (e.g. an
  // eavesdropper running the public decode with uncorrelated key
  // material): report reconciliation failure by applying no correction.
  if (best_norm2 > 0.25 * initial_norm2) {
    return {BitVec(n), iters};
  }
  return {bloom.map_mismatch_back(best_delta), iters};
}

/// A Bloom-mapped key's flips as packed words, inline for every key a
/// BitVec holds inline.
using KeyWords = SmallBuffer<std::uint64_t, BitVec::kInlineBits / 64>;

bool has_bit(const KeyWords& words, std::size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1u) != 0;
}

/// One state of decode_mismatch's beam: the bits it flips in Alice's
/// Bloom-mapped key and how many, s_i = 1 - 2 w_i for each bit of the key
/// it reaches, its residual energy ||h||^2 and <h, W_col_i> for every bit.
struct BeamState {
  KeyWords flipped;
  std::size_t flips = 0;
  KeyScratch sign;
  double norm2 = 0.0;
  KeyScratch dots;
};

/// A child a pass keeps: state `from` with bit `bit` flipped.
struct Child {
  double norm2 = 0.0;
  std::size_t from = 0, bit = 0;
};

/// Whether flipping bit i of `a` gives the same key as flipping bit j of
/// `b`, for two distinct states of one pass.
bool same_child(const KeyWords& a, std::size_t i, const KeyWords& b,
                std::size_t j) {
  if (i == j) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    std::uint64_t x = a[k] ^ b[k];
    if (k == i / 64) x ^= std::uint64_t{1} << (i % 64);
    if (k == j / 64) x ^= std::uint64_t{1} << (j % 64);
    if (x != 0) return false;
  }
  return true;
}

}  // namespace

SyndromeCode::SyndromeCode(std::size_t key_bits, std::uint64_t seed)
    : rng_(seed),
      bloom_(key_bits, kBloomSeed),
      f1_(key_bits, kCodeDim, rng_) {
  VKEY_REQUIRE(key_bits >= 8, "key too short");
  form_gram();
}

void SyndromeCode::form_gram() {
  const std::size_t n = key_bits();
  const double* w = f1_.weights().value.data();  // kCodeDim x n
  gram_.assign(n * n, 0.0);
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    const double* row = w + r * n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) gram_[i * n + j] += row[i] * row[j];
    }
  }
}

double SyndromeCode::residual(std::span<const std::uint8_t> work,
                              std::span<const double> y_bob,
                              std::span<double, kCodeDim> h) const {
  KeyScratch x(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) x[i] = work[i];
  f1_.infer_into(x.data(), h.data());
  double norm2 = 0.0;
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    h[r] = y_bob[r] - h[r];
    norm2 += h[r] * h[r];
  }
  return norm2;
}

std::array<double, kCodeDim> SyndromeCode::encode_bob(
    const BitVec& key_bob) const {
  VKEY_REQUIRE(key_bob.size() == key_bits(), "key width mismatch");
  KeyScratch x(key_bits());
  load_bits(bloom_.apply(key_bob), x);
  std::array<double, kCodeDim> y_bob{};
  f1_.infer_into(x.data(), y_bob.data());
  return y_bob;
}

SyndromeCode::DecodeResult SyndromeCode::decode_mismatch(
    const BitVec& key_alice, std::span<const double> y_bob) const {
  const std::size_t n = key_bits();
  check_widths(n, key_alice, y_bob);
  const std::size_t radius = decode_radius(n);
  const double* w = f1_.weights().value.data();  // kCodeDim x n
  const BitVec mapped = bloom_.apply(key_alice);
  KeyBits start(n);
  KeyScratch diag(n), score(n);
  for (std::size_t i = 0; i < n; ++i) {
    start[i] = mapped.get(i);
    diag[i] = gram_[i * n + i];
  }

  // Two generations of states; a pass reads one and writes the other.
  std::array<std::array<BeamState, kBeamWidth>, 2> gens;
  for (auto& gen : gens) {
    for (BeamState& st : gen) {
      st.flipped.resize((n + 63) / 64);
      st.sign.resize(n);
      st.dots.resize(n);
    }
  }
  std::size_t cur = 0, width = 1;

  // The start state: Alice's key itself, its residual h and <h, W_col_i>.
  BeamState& first = gens[cur][0];
  std::array<double, kCodeDim> h{};
  first.norm2 = residual(start, y_bob, h);
  for (std::size_t i = 0; i < n; ++i) first.sign[i] = start[i] ? -1.0 : 1.0;
  double* const dots0 = first.dots.data();
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    const double* row = w + r * n;
    for (std::size_t i = 0; i < n; ++i) dots0[i] += h[r] * row[i];
  }
  std::size_t macs = 2 * n * kCodeDim;
  const double initial_norm2 = first.norm2;
  double best_norm2 = first.norm2;
  KeyWords best = first.flipped;
  bool converged = best_norm2 <= kConverged;
  std::size_t iters = 0;

  while (!converged && iters < kMaxDecodeIterations) {
    ++iters;
    const auto& beam = gens[cur];
    auto& next = gens[cur ^ 1];
    // Score every single-bit flip of every state within the radius: the
    // energy it leaves is ||h||^2 - 2 s_i <h, W_col_i> + G_ii. Keep the
    // kBeamWidth lowest of distinct keys in (energy, state, bit) order: a
    // scan in state-then-bit order inserts after equal energies, and of
    // two routes to one key the one ranked first stays.
    std::array<Child, kBeamWidth> kept;
    std::size_t nkept = 0;
    double bar = kNever;  // the energy a child must beat to be kept
    for (std::size_t s = 0; s < width; ++s) {
      const BeamState& st = beam[s];
      const double* sign = st.sign.data();
      const double* dots = st.dots.data();
      double* const out = score.data();
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = st.norm2 - 2.0 * sign[i] * dots[i] + diag[i];
      }
      macs += n;
      if (st.flips == radius) {  // only un-flipping keeps it in the radius
        for (std::size_t i = 0; i < n; ++i) {
          if (!has_bit(st.flipped, i)) out[i] = kNever;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double norm2 = out[i];
        if (!(norm2 < bar)) continue;
        std::size_t at = nkept;  // a state's own children are distinct
        for (std::size_t k = 0; k < nkept; ++k) {
          if (kept[k].from != s &&
              same_child(st.flipped, i, beam[kept[k].from].flipped,
                         kept[k].bit)) {
            at = k;
            break;
          }
        }
        if (at < nkept) {
          if (!(norm2 < kept[at].norm2)) continue;
        } else if (nkept < kBeamWidth) {
          ++nkept;
        }
        // Drop entry `at` (the duplicate, or the worst when full), then
        // insert after every kept energy at or below this one.
        at = std::min(at, nkept - 1);
        for (; at > 0 && kept[at - 1].norm2 > norm2; --at) {
          kept[at] = kept[at - 1];
        }
        kept[at] = {norm2, s, i};
        if (nkept == kBeamWidth) bar = kept[nkept - 1].norm2;
      }
    }
    if (nkept == 0) break;  // a non-finite syndrome scores nothing

    // Each kept child updates its parent's dot products through row `bit`
    // of the Gram matrix: flipping bit i moves h by -s_i W_col_i.
    for (std::size_t k = 0; k < nkept; ++k) {
      const Child& c = kept[k];
      const BeamState& parent = beam[c.from];
      BeamState& child = next[k];
      const double s = parent.sign[c.bit];
      child.flipped = parent.flipped;
      child.flipped[c.bit / 64] ^= std::uint64_t{1} << (c.bit % 64);
      child.flips = has_bit(child.flipped, c.bit) ? parent.flips + 1
                                                  : parent.flips - 1;
      std::copy_n(parent.sign.data(), n, child.sign.data());
      child.sign[c.bit] = -s;
      child.norm2 = c.norm2;
      const double* g = gram_.data() + c.bit * n;
      const double* dots = parent.dots.data();
      double* out = child.dots.data();
      for (std::size_t m = 0; m < n; ++m) out[m] = dots[m] - s * g[m];
    }
    macs += nkept * n;
    cur ^= 1;
    width = nkept;

    if (next[0].norm2 < best_norm2) {
      best_norm2 = next[0].norm2;
      best = next[0].flipped;
    }
    if (best_norm2 <= kConverged) {
      // The running energies pick up rounding pass after pass: the winner
      // counts as converged only if its key passes the test from scratch.
      KeyBits work = start;
      for (std::size_t i = 0; i < n; ++i) work[i] ^= has_bit(best, i);
      best_norm2 = residual(work, y_bob, h);
      macs += n * kCodeDim;
      converged = best_norm2 <= kConverged;
    }
  }

  // Convergence gate: a mismatch inside the design radius drives the
  // residual to (near) zero. If it never fell below a quarter of its
  // starting energy, the mismatch was denser than the code can localize
  // (e.g. an eavesdropper's uncorrelated key): report no correction.
  BitVec delta(n);
  if (best_norm2 <= 0.25 * initial_norm2) {
    for (std::size_t i = 0; i < n; ++i) delta.set(i, has_bit(best, i));
  }
  return {bloom_.map_mismatch_back(delta), iters, macs};
}

BitVec SyndromeCode::reconcile(const BitVec& key_alice,
                               std::span<const double> y_bob) const {
  return key_alice ^ decode_mismatch(key_alice, y_bob).mismatch;
}

void SyndromeCode::syndrome(const BitVec& key_bob,
                            std::span<std::uint8_t> out) const {
  VKEY_REQUIRE(out.size() == kSyndromeBytes, "syndrome buffer width mismatch");
  const std::array<double, kCodeDim> y_bob = encode_bob(key_bob);
  for (std::size_t i = 0; i < y_bob.size(); ++i) {
    const auto v = std::bit_cast<std::uint64_t>(y_bob[i]);
    for (std::size_t b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

std::optional<BitVec> SyndromeCode::correct(
    const BitVec& key_alice, std::span<const std::uint8_t> syndrome) const {
  if (syndrome.size() != kSyndromeBytes) return std::nullopt;
  std::array<double, kCodeDim> y_bob{};
  for (std::size_t i = 0; i < kCodeDim; ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      v |= std::uint64_t{syndrome[8 * i + b]} << (8 * b);
    }
    y_bob[i] = std::bit_cast<double>(v);
  }
  return reconcile(key_alice, y_bob);
}

AutoencoderReconciler::AutoencoderReconciler(const ReconcilerConfig& config)
    : SyndromeCode(config.key_bits, config.seed),
      cfg_(config),
      f2_(config.key_bits, kCodeDim, rng_) {
  std::size_t in = kCodeDim;
  for (std::size_t l = 0; l < kDecoderLayers; ++l) {
    decoder_.emplace_back(in, cfg_.decoder_units, rng_,
                          nn::Activation::kTanh);
    in = cfg_.decoder_units;
  }
  decoder_.emplace_back(in, cfg_.key_bits, rng_);  // logits
}

std::vector<nn::Parameter*> AutoencoderReconciler::parameters() {
  std::vector<nn::Parameter*> p;
  if (!cfg_.freeze_encoder) {
    if (cfg_.tie_encoders) {
      // Weights only: the encoder bias cancels in h = y_B - y_A, so it is
      // pinned at zero to keep training and inference consistent.
      p.push_back(f1_.parameters()[0]);
    } else {
      for (auto* q : f1_.parameters()) p.push_back(q);
      for (auto* q : f2_.parameters()) p.push_back(q);
    }
  }
  for (auto& layer : decoder_) {
    for (auto* q : layer.parameters()) p.push_back(q);
  }
  return p;
}

double AutoencoderReconciler::train(std::size_t num_samples,
                                    std::size_t epochs) {
  VKEY_REQUIRE(num_samples >= 1 && epochs >= 1, "nothing to train on");
  nn::Adam opt(parameters(), kLearningRate);

  // Pre-generate the synthetic pair set so epochs revisit the same data,
  // Bloom-mapped once here: a pair's mapping depends only on the pair.
  // Each pair draws from its own hash-derived stream, making generation
  // order-free: any lane can produce pair s and the result is identical.
  const std::uint64_t pair_seed = hash_combine64(cfg_.seed, 0x70616972ULL);
  auto pairs = parallel::parallel_map_n(
      num_samples,
      [&](std::size_t s) {
        vkey::Rng rng(hash_combine64(pair_seed, s));
        BitVec kb(cfg_.key_bits);
        for (std::size_t i = 0; i < cfg_.key_bits; ++i) {
          kb.set(i, rng.bernoulli(0.5));
        }
        const double ber = rng.uniform(kTrainBerLo, kTrainBerHi);
        BitVec ka = kb;
        for (std::size_t i = 0; i < cfg_.key_bits; ++i) {
          if (rng.bernoulli(ber)) ka.flip(i);
        }
        return std::pair<BitVec, BitVec>(bloom_.apply(kb), bloom_.apply(ka));
      },
      cfg_.threads);

  // One set of rows per call, row j of each being batch member j's: act[0]
  // is the code difference h, act[l + 1] decoder layer l's output and
  // grad[l] dL/d act[l]. The encoders read `in_b` and `in_a`; untied ones
  // write `y_b` and `y_a`, a tied one h itself.
  const std::size_t batch = std::min(kBatchSize, pairs.size());
  const std::size_t n = cfg_.key_bits;
  const bool train_encoder = !cfg_.freeze_encoder;
  nn::Parameter* const tied_bias = f1_.parameters()[1];
  nn::Vec in_b(batch * n), in_a(batch * n), target(batch * n);
  nn::Vec y_b(batch * kCodeDim), y_a(batch * kCodeDim);
  std::vector<nn::Vec> act;
  for (const auto& layer : decoder_) act.emplace_back(batch * layer.in_size());
  act.emplace_back(batch * n);
  std::vector<nn::Vec> grad = act;
  std::vector<double> losses(batch);
  const auto row = [batch](nn::Vec& v, std::size_t j) {
    return std::span(v).subspan(j * v.size() / batch, v.size() / batch);
  };

  // Member j's forward pass, on pair start + j. Members are independent,
  // so they fan out over the lanes; each writes only its own rows.
  std::size_t start = 0;
  auto forward = [&](std::size_t j) {
    const auto& [kb, ka] = pairs[start + j];
    const auto b = row(in_b, j), a = row(in_a, j), e = row(target, j);
    const auto h = row(act[0], j), yb = row(y_b, j), ya = row(y_a, j);
    for (std::size_t i = 0; i < n; ++i) {
      const double db = kb.get(i), da = ka.get(i);
      // Tied linear encoders: h = f(K'_B) - f(K'_A) = W (K'_B - K'_A); the
      // bias cancels, so training on the difference vector is exactly the
      // weight-shared gradient (g x kb - g x ka = g x diff).
      b[i] = cfg_.tie_encoders ? db - da : db;
      a[i] = da;
      e[i] = kb.get(i) ^ ka.get(i);
    }
    if (cfg_.tie_encoders) {
      f1_.forward(b, h);
    } else {
      f1_.forward(b, yb);
      f2_.forward(a, ya);
      for (std::size_t i = 0; i < kCodeDim; ++i) h[i] = yb[i] - ya[i];
    }
    for (std::size_t l = 0; l < decoder_.size(); ++l) {
      decoder_[l].forward(row(act[l], j), row(act[l + 1], j));
    }
    losses[j] = nn::bce_with_logits(row(act.back(), j), e, row(grad.back(), j));
  };

  double last_epoch_loss = 0.0;
  for (std::size_t e = 0; e < epochs; ++e) {
    // Shuffle (sequential by design: the epoch permutation is part of the
    // deterministic training schedule, not per-index work).
    for (std::size_t i = pairs.size(); i > 1; --i) {
      std::swap(pairs[i - 1],
                pairs[static_cast<std::size_t>(rng_.uniform_int(i))]);
    }
    double epoch_loss = 0.0;
    for (start = 0; start < pairs.size(); start += batch) {
      const std::size_t bs = std::min(batch, pairs.size() - start);
      // By reference: a batch on one lane then allocates nothing.
      parallel::parallel_for(bs, std::ref(forward), cfg_.threads);
      for (std::size_t j = 0; j < bs; ++j) epoch_loss += losses[j];

      // Backward layer by layer; each layer adds its members' gradients in
      // member order, so the double sums do not depend on the lane count.
      const auto first = [batch, bs](nn::Vec& v) {
        return std::span(v).first(v.size() / batch * bs);
      };
      for (std::size_t l = decoder_.size(); l-- > 0;) {
        decoder_[l].backward_batch(
            bs, first(act[l]), first(act[l + 1]), first(grad[l + 1]),
            l > 0 || train_encoder ? first(grad[l]) : std::span<double>());
      }
      if (train_encoder) {
        const auto g = first(grad[0]);
        f1_.backward_batch(bs, first(in_b),
                           first(cfg_.tie_encoders ? act[0] : y_b), g, {});
        if (cfg_.tie_encoders) {
          // The tied bias is no parameter (see parameters()): drop the
          // gradient backward_batch formed for it, or it grows unread.
          tied_bias->zero_grad();
        } else {
          // h = yb - ya: the gradient splits with opposite signs.
          for (double& v : g) v = -v;
          f2_.backward_batch(bs, first(in_a), first(y_a), g, {});
        }
      }
      opt.step(bs);
    }
    last_epoch_loss = epoch_loss / static_cast<double>(pairs.size());
  }
  if (train_encoder) form_gram();  // decode_mismatch reads f1's Gram matrix
  return last_epoch_loss;
}

AutoencoderReconciler::DecodeResult AutoencoderReconciler::decode_guided(
    const BitVec& key_alice, std::span<const double> y_bob) const {
  check_widths(key_bits(), key_alice, y_bob);
  // Each pass runs the decoder on h through two ping-pong activation
  // buffers and shortlists its top-scored positions, highest logit first.
  const std::size_t width =
      std::max({cfg_.key_bits, kCodeDim, cfg_.decoder_units});
  std::vector<double> buffers(2 * width);
  std::vector<std::size_t> order(cfg_.key_bits);
  return greedy_decode(
      f1_, bloom_, key_alice, y_bob,
      [&](std::span<const double> h, auto&& score) {
        double* cur = buffers.data();
        double* next = cur + width;
        std::copy(h.begin(), h.end(), cur);
        for (const auto& layer : decoder_) {
          layer.infer_into(cur, next);
          std::swap(cur, next);
        }
        const double* x = cur;  // the decoder's logits, key_bits wide
        std::iota(order.begin(), order.end(), 0);
        const std::size_t take = std::min(kShortlist, order.size());
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(take),
                          order.end(), [x](std::size_t a, std::size_t b) {
                            return x[a] > x[b];
                          });
        for (std::size_t c = 0; c < take; ++c) score(order[c]);
      });
}

BitVec AutoencoderReconciler::reconcile_one_shot(
    const BitVec& key_alice, std::span<const double> y_bob) const {
  check_widths(key_bits(), key_alice, y_bob);
  const nn::Dense& alice_encoder = cfg_.tie_encoders ? f1_ : f2_;
  const nn::Vec ya = alice_encoder.infer(bloom_.apply(key_alice).to_doubles());
  nn::Vec h(kCodeDim);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = y_bob[i] - ya[i];
  nn::Vec x = h;
  for (const auto& layer : decoder_) x = layer.infer(x);
  BitVec delta(cfg_.key_bits);
  for (std::size_t i = 0; i < cfg_.key_bits; ++i) delta.set(i, x[i] > 0.0);
  return key_alice ^ bloom_.map_mismatch_back(delta);
}

std::size_t AutoencoderReconciler::decode_flops() const {
  // Alice: her encoder (N x M) + decoder stack.
  std::size_t flops = cfg_.key_bits * kCodeDim;
  std::size_t in = kCodeDim;
  for (std::size_t l = 0; l < kDecoderLayers; ++l) {
    flops += in * cfg_.decoder_units;
    in = cfg_.decoder_units;
  }
  flops += in * cfg_.key_bits;
  return flops;
}

}  // namespace vkey::core
