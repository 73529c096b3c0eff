#include "core/reconciler.h"

#include <algorithm>
#include <array>
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
/// Levels per syndrome component: one byte's worth.
constexpr std::size_t kLevels = 256;
static_assert(kSyndromeBytes == kCodeDim &&
                  kLevels - 1 == std::numeric_limits<std::uint8_t>::max(),
              "one level index per syndrome byte");
/// The cell test's slack, in units of epsilon x (|low| + |high|) of a
/// component's range: covers the rounding in Bob's level index, in the
/// centre and in the residual, so Bob's own key always passes.
constexpr double kCellSlack = 16.0;
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
  const double* b = f1_.bias().value.data();
  gram_.assign(n * n, 0.0);
  cell_energy_ = 0.0;
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    const double* row = w + r * n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) gram_[i * n + j] += row[i] * row[j];
    }
    // Component r of f1 over 0/1 inputs: its least and greatest values.
    double low = b[r], high = b[r];
    for (std::size_t i = 0; i < n; ++i) (row[i] < 0.0 ? low : high) += row[i];
    low_[r] = low;
    step_[r] = (high - low) / static_cast<double>(kLevels - 1);
    VKEY_REQUIRE(step_[r] > 0.0 && std::isfinite(step_[r]),
                 "encoder row spans no range");
    reach_[r] = 0.5 * step_[r] + kCellSlack *
                                     std::numeric_limits<double>::epsilon() *
                                     (std::abs(low) + std::abs(high));
    cell_energy_ += reach_[r] * reach_[r];
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

bool SyndromeCode::in_cells(std::span<const double, kCodeDim> h) const {
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    if (!(std::abs(h[r]) <= reach_[r])) return false;
  }
  return true;
}

std::optional<bool> SyndromeCode::cell_test(
    std::span<const std::uint8_t> work, std::span<const double> y_bob,
    std::span<double, kCodeDim> h, double& norm2) const {
  if (!(norm2 <= cell_energy_)) return std::nullopt;
  // A decode's running energy picks up rounding pass after pass, and a
  // small energy is not yet a match: the key passes only if its own
  // encoding, from scratch, falls in every cell.
  norm2 = residual(work, y_bob, h);
  return in_cells(h);
}

std::array<std::uint8_t, kCodeDim> SyndromeCode::cells(
    const BitVec& key_bob) const {
  VKEY_REQUIRE(key_bob.size() == key_bits(), "key width mismatch");
  KeyScratch x(key_bits());
  load_bits(bloom_.apply(key_bob), x);
  std::array<double, kCodeDim> y{};
  f1_.infer_into(x.data(), y.data());
  std::array<std::uint8_t, kCodeDim> cell{};
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    // y lies in its component's range, so the nearest level is one of the
    // kLevels: nothing needs clamping.
    cell[r] =
        static_cast<std::uint8_t>(std::lround((y[r] - low_[r]) / step_[r]));
  }
  return cell;
}

std::array<double, kCodeDim> SyndromeCode::centres(
    std::span<const std::uint8_t, kCodeDim> cell) const {
  std::array<double, kCodeDim> y{};
  for (std::size_t r = 0; r < kCodeDim; ++r) {
    y[r] = low_[r] + static_cast<double>(cell[r]) * step_[r];
  }
  return y;
}

std::array<double, kCodeDim> SyndromeCode::encode_bob(
    const BitVec& key_bob) const {
  return centres(cells(key_bob));
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
  bool converged = in_cells(h);  // the start's residual is from scratch
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
      KeyBits work = start;
      for (std::size_t i = 0; i < n; ++i) work[i] ^= has_bit(best, i);
      if (const auto inside = cell_test(work, y_bob, h, best_norm2)) {
        macs += n * kCodeDim;
        converged = *inside;
      }
    }
  }

  // Convergence gate: a mismatch inside the design radius drives the
  // residual down to the cells' rounding. If the decode never passed the
  // cell test and its energy never fell below a quarter of where it
  // started, the mismatch was denser than the code can localize (e.g. an
  // eavesdropper's uncorrelated key): report no correction.
  BitVec delta(n);
  if (converged || best_norm2 <= 0.25 * initial_norm2) {
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
  const std::array<std::uint8_t, kCodeDim> cell = cells(key_bob);
  std::copy(cell.begin(), cell.end(), out.begin());
}

std::optional<BitVec> SyndromeCode::correct(
    const BitVec& key_alice, std::span<const std::uint8_t> syndrome) const {
  if (syndrome.size() != kSyndromeBytes) return std::nullopt;
  return reconcile(key_alice, centres(syndrome.first<kCodeDim>()));
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
        const BitVec kb = random_bits(cfg_.key_bits, rng);
        const double ber = rng.uniform(kTrainBerLo, kTrainBerHi);
        const BitVec ka = with_noise(kb, ber, rng);
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
  const std::size_t n = key_bits();
  check_widths(n, key_alice, y_bob);
  const double* w = f1_.weights().value.data();  // kCodeDim x n
  const BitVec mapped = bloom_.apply(key_alice);
  KeyBits work(n);
  for (std::size_t i = 0; i < n; ++i) work[i] = mapped.get(i);
  BitVec delta(n);

  // f1 is public and linear: flipping bit i of the working key moves h by
  // -(1 - 2 w_i) W_col_i, so the post-flip residual is ||h||^2 -
  // 2 s_i <h, W_col_i> + G_ii, one dot product given the Gram diagonal.
  std::array<double, kCodeDim> h{};
  double h_norm2 = residual(work, y_bob, h);
  const double initial_norm2 = h_norm2;
  BitVec best_delta = delta;
  double best_norm2 = h_norm2;
  bool converged = in_cells(h);
  std::size_t iters = 0;

  // Each pass runs the decoder on h through two ping-pong activation
  // buffers and shortlists its top-scored positions, highest logit first.
  const std::size_t width =
      std::max({cfg_.key_bits, kCodeDim, cfg_.decoder_units});
  std::vector<double> buffers(2 * width);
  std::vector<std::size_t> order(n);
  KeyScratch dots(n);
  while (!converged && iters < kMaxDecodeIterations) {
    ++iters;
    std::fill(dots.begin(), dots.end(), 0.0);
    for (std::size_t r = 0; r < kCodeDim; ++r) {
      const double* row = w + r * n;
      for (std::size_t i = 0; i < n; ++i) dots[i] += h[r] * row[i];
    }
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
    // Commit the shortlisted flip that shrinks ||h|| the most (the first of
    // equals). A pass that cannot shrink it ends the loop, so a wrong greedy
    // step can be undone but never loops forever.
    std::size_t best_pos = n;
    double pick_norm2 = h_norm2 - 1e-12;
    double best_sign = 0.0;
    for (std::size_t c = 0; c < take; ++c) {
      const std::size_t i = order[c];
      const double s = work[i] ? -1.0 : 1.0;  // 1 - 2 w_i
      const double cand_norm2 = h_norm2 - 2.0 * s * dots[i] + gram_[i * n + i];
      if (cand_norm2 < pick_norm2) {
        pick_norm2 = cand_norm2;
        best_pos = i;
        best_sign = s;
      }
    }
    if (best_pos == n) break;

    for (std::size_t r = 0; r < kCodeDim; ++r) {
      h[r] -= best_sign * w[r * n + best_pos];
    }
    h_norm2 = pick_norm2;
    work[best_pos] ^= 1;
    delta.flip(best_pos);
    if (h_norm2 < best_norm2) {
      best_norm2 = h_norm2;
      best_delta = delta;
      converged = cell_test(work, y_bob, h, best_norm2).value_or(false);
      h_norm2 = best_norm2;
    }
  }

  // Convergence gate, as decode_mismatch's.
  if (!converged && best_norm2 > 0.25 * initial_norm2) {
    return {BitVec(n), iters};
  }
  return {bloom_.map_mismatch_back(best_delta), iters};
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
