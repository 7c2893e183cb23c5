#include "core/secondary.hpp"

#include <algorithm>
#include <cmath>

namespace riskan::core {

SecondarySampler::SecondarySampler(const data::EventLossTable& elt) {
  params_.resize(elt.size());
  const auto means = elt.mean_loss();
  const auto sigmas = elt.sigma_loss();
  const auto exposures = elt.exposure();
  for (std::size_t i = 0; i < elt.size(); ++i) {
    Param& p = params_[i];
    p.exposure = exposures[i];
    if (p.exposure <= 0.0 || means[i] <= 0.0) {
      p.degenerate = true;
      p.mean_ratio = 0.0;
      continue;
    }
    const double mean_ratio = means[i] / p.exposure;
    p.mean_ratio = mean_ratio;
    if (mean_ratio >= 1.0) {
      // Loss pinned at the exposure limit.
      p.degenerate = true;
      p.mean_ratio = 1.0;
      continue;
    }
    const double sigma_ratio = sigmas[i] / p.exposure;
    if (sigma_ratio <= 1e-9) {
      p.degenerate = true;  // effectively deterministic
      continue;
    }
    beta_from_moments(mean_ratio, sigma_ratio, p.alpha, p.beta);
  }

  // Lane rows for the batched path, derived from the AoS params with the
  // exact expressions sample_gamma evaluates (shape - 1/3, 1/sqrt(9d),
  // boosted shape + 1.0), so a fast-path accept commits the same bits the
  // scalar sampler would.
  const std::size_t n = params_.size();
  lane_rows_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Param& p = params_[i];
    LaneRow& r = lane_rows_[i];
    r.exposure = p.exposure;
    if (p.degenerate) {
      r.flags = kDegenerate;
      r.d_a = p.exposure * p.mean_ratio;  // the precomputed sample value
      continue;
    }
    std::uint32_t flags = 0;
    if (p.alpha < 1.0) {
      flags |= kBoostAlpha;
    }
    if (p.beta < 1.0) {
      flags |= kBoostBeta;
    }
    r.flags = flags;
    const double shape_a = p.alpha < 1.0 ? p.alpha + 1.0 : p.alpha;
    const double shape_b = p.beta < 1.0 ? p.beta + 1.0 : p.beta;
    r.d_a = shape_a - 1.0 / 3.0;
    r.c_a = 1.0 / std::sqrt(9.0 * r.d_a);
    r.inv_a = 1.0 / p.alpha;
    r.d_b = shape_b - 1.0 / 3.0;
    r.c_b = 1.0 / std::sqrt(9.0 * r.d_b);
    r.inv_b = 1.0 / p.beta;
  }
}

namespace {

/// One gamma marginal off the pre-drawn word budget: boost uniform (when
/// the scalar sampler would boost), Box–Muller pair, acceptance uniform —
/// the exact draw order and expressions of sample_gamma's first attempt.
/// Returns false when that attempt rejects (shifted value non-positive or
/// both acceptance tests fail): the caller falls back to the scalar
/// sampler on a fresh stream, which recomputes from the stream's start, so
/// bailing here never perturbs the draw sequence. `Boost` is a template
/// parameter so the no-boost decode pass compiles with zero boost branches
/// — the boost bit is ~50/50 across a real book's rows, which made it a
/// guaranteed-mispredict branch when tested per occurrence.
template <bool Boost>
inline bool gamma_first_attempt(const std::uint64_t* w, int& idx, double d, double c,
                                double inv_shape, double& out) noexcept {
  double boost_mul = 1.0;
  if constexpr (Boost) {
    boost_mul = std::pow(to_unit_double_open(w[idx++]), inv_shape);
  }
  const double u1 = to_unit_double_open(w[idx++]);
  const double u2 = to_unit_double_open(w[idx++]);
  const double x = normal_from_uniforms(u1, u2);
  double v = 1.0 + c * x;
  if (v <= 0.0) {
    return false;
  }
  v = v * v * v;
  const double u = to_unit_double_open(w[idx++]);
  if (!gamma_accept(x, v, u, d)) {
    return false;
  }
  // (d * v) is the inner gamma's return value; the boost multiplies it
  // afterwards, exactly as sample_gamma composes them (x * 1.0 == x
  // bitwise for the non-boost case).
  out = (d * v) * boost_mul;
  return true;
}

}  // namespace

void SecondarySampler::sample_lanes(const Philox4x32& engine, std::uint64_t hi_key,
                                    const std::uint32_t* rows, const std::uint64_t* lo,
                                    std::size_t n, const AttachmentCut& cut, Money* out,
                                    std::uint64_t& fast, std::uint64_t& tail,
                                    std::uint64_t& skipped) const {
  const PhiloxLanes lanes(engine);

  // Per batch: up to kLanes occurrences, 3 or 4 blocks per live lane — the
  // whole word budget of a both-gammas-first-attempt sample. A non-boosted
  // row consumes exactly 6 words (Box–Muller pair + acceptance uniform per
  // marginal), so it gets 3 blocks, the same count the scalar stream would
  // advance; any boosted marginal adds its boost uniform, pushing the
  // budget to 7–8 words = 4 blocks. Counter layout per live lane, block j:
  // the stream's block j is (hi ^ (j >> 1), lo + j), matching PhiloxStream
  // word for word.
  //
  // Lanes are partitioned by boost class — no-boost lanes take the front of
  // the counter array (3 blocks each), boosted lanes the back (4 blocks
  // each) — so the hot decode pass runs with zero boost branches and every
  // loop below is either branch-free or branches on a class-uniform
  // predicate. The boost bit is ~50/50 across a real book's random row
  // order, which made any per-occurrence boost test a guaranteed
  // mispredict. Reordering is free: each lane's blocks are an independent
  // pure function of (key, counter), and each fallback re-samples on its
  // own fresh stream, so neither pass order nor tail order can perturb any
  // committed value.
  constexpr std::size_t kLanes = 64;
  std::uint64_t chi[kLanes * 4];
  std::uint64_t clo[kLanes * 4];
  std::uint64_t words[kLanes * 8];
  std::uint32_t nb[kLanes];
  std::uint32_t bo[kLanes];
  std::uint32_t fallback[kLanes];

  for (std::size_t b0 = 0; b0 < n; b0 += kLanes) {
    const std::size_t bn = std::min(kLanes, n - b0);

    // Classify into the two live lists (branchless double-append). Rows
    // that draw nothing commit here: a degenerate row its precomputed
    // value, like the scalar path, and a row dead under the attachment cut
    // its exposure, which is at or below the cut. Live lanes overwrite
    // this value in the decode below. Dead rows arrive in random order
    // (about a third of a rolled-up book's occurrences), so they join the
    // append arithmetic rather than a branch.
    std::size_t nnb = 0;
    std::size_t nbo = 0;
    std::size_t ndead = 0;
    for (std::size_t i = 0; i < bn; ++i) {
      const LaneRow& r = lane_rows_[rows[b0 + i]];
      const std::uint32_t flags = r.flags;
      const bool degenerate = (flags & kDegenerate) != 0;
      const bool dead = cut.dead(r.exposure);
      const bool live = !degenerate && !dead;
      const bool boosted = (flags & (kBoostAlpha | kBoostBeta)) != 0;
      out[b0 + i] = degenerate ? r.d_a : r.exposure;
      nb[nnb] = static_cast<std::uint32_t>(i);
      bo[nbo] = static_cast<std::uint32_t>(i);
      nnb += live && !boosted ? 1 : 0;
      nbo += live && boosted ? 1 : 0;
      ndead += dead ? 1 : 0;
    }

    std::size_t c = 0;
    for (std::size_t v = 0; v < nnb; ++v, c += 3) {
      const std::uint64_t l = lo[b0 + nb[v]];
      chi[c] = hi_key;
      chi[c + 1] = hi_key;
      chi[c + 2] = hi_key ^ 1;
      clo[c] = l;
      clo[c + 1] = l + 1;
      clo[c + 2] = l + 2;
    }
    for (std::size_t v = 0; v < nbo; ++v, c += 4) {
      const std::uint64_t l = lo[b0 + bo[v]];
      chi[c] = hi_key;
      chi[c + 1] = hi_key;
      chi[c + 2] = hi_key ^ 1;
      chi[c + 3] = hi_key ^ 1;
      clo[c] = l;
      clo[c + 1] = l + 1;
      clo[c + 2] = l + 2;
      clo[c + 3] = l + 3;
    }

    lanes.blocks(chi, clo, c, words);

    // Decode, no-boost pass: 6 words per lane, boost branches compiled out.
    std::size_t nfall = 0;
    const std::uint64_t* w = words;
    for (std::size_t v = 0; v < nnb; ++v, w += 6) {
      const std::size_t i = nb[v];
      const LaneRow& r = lane_rows_[rows[b0 + i]];
      int idx = 0;
      double ga;
      double gb;
      if (gamma_first_attempt<false>(w, idx, r.d_a, r.c_a, r.inv_a, ga) &&
          gamma_first_attempt<false>(w, idx, r.d_b, r.c_b, r.inv_b, gb)) {
        out[b0 + i] = r.exposure * (ga / (ga + gb));
      } else {
        fallback[nfall++] = static_cast<std::uint32_t>(i);
      }
    }

    // Decode, boosted pass: 8 words allotted per lane (7 consumed when only
    // one marginal boosts); the per-marginal boost test only runs inside
    // this minority class.
    for (std::size_t v = 0; v < nbo; ++v, w += 8) {
      const std::size_t i = bo[v];
      const LaneRow& r = lane_rows_[rows[b0 + i]];
      int idx = 0;
      double ga;
      double gb;
      const bool ok =
          ((r.flags & kBoostAlpha) != 0
               ? gamma_first_attempt<true>(w, idx, r.d_a, r.c_a, r.inv_a, ga)
               : gamma_first_attempt<false>(w, idx, r.d_a, r.c_a, r.inv_a, ga)) &&
          ((r.flags & kBoostBeta) != 0
               ? gamma_first_attempt<true>(w, idx, r.d_b, r.c_b, r.inv_b, gb)
               : gamma_first_attempt<false>(w, idx, r.d_b, r.c_b, r.inv_b, gb));
      if (ok) {
        out[b0 + i] = r.exposure * (ga / (ga + gb));
      } else {
        fallback[nfall++] = static_cast<std::uint32_t>(i);
      }
    }

    fast += bn - nfall - ndead;
    tail += nfall;
    skipped += ndead;

    // Rejection tail: the scalar sampler on a fresh per-occurrence stream
    // (order-independent — every stream is keyed by its own lo).
    for (std::size_t f = 0; f < nfall; ++f) {
      const std::size_t i = fallback[f];
      PhiloxStream stream(engine, hi_key, lo[b0 + i]);
      out[b0 + i] = sample(rows[b0 + i], stream);
    }
  }
}

}  // namespace riskan::core
