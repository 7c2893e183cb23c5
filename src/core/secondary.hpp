// Secondary uncertainty — sampling an actual loss around the ELT mean.
//
// Catastrophe models report, per event, a mean loss and a spread; the loss
// given that the event occurs is Beta-distributed on [0, exposure]
// (industry convention; see Meyers et al. [5] of the paper). Aggregate
// analysis optionally samples this distribution per (trial, event)
// occurrence, which is the dominant FLOP cost of stage 2.
//
// Determinism contract: the sample depends only on (seed, contract, layer,
// trial, occurrence-sequence) through a counter-based Philox stream, so all
// engine backends produce bit-identical YLTs regardless of scheduling.
//
// The attachment cut: every sample of row r is at most max_loss(r), the
// row's exposure. A non-degenerate sample is exposure * x/(x+y) with gamma
// draws x, y > 0, and under round-to-nearest fl(x+y) >= x, so the ratio
// rounds to at most 1; a degenerate sample is exposure * mean_ratio with
// mean_ratio <= 1. Rounded multiplication by a non-negative scale is
// monotone, so when fl(max_loss(r) * loss_scale) <= occ_retention every
// scaled sample sits at or below the retention, apply_occurrence returns
// exactly +0.0 under either retention kind, and neither the annual sum nor
// the OEP accumulator can see the draw. The kernels skip such draws
// (AttachmentCut); each occurrence owns its Philox stream, so a skip
// perturbs no other occurrence. The one sample outside the bound is a 0/0
// beta draw: both boosted gamma draws underflow to zero, which needs
// u^(1/shape) below the smallest subnormal on both marginals (shapes below
// ~0.05 and both boost uniforms below ~1e-10). That sample is NaN, and on a
// dead row the cut commits +0.0 in its place. No branch guards it.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "data/elt.hpp"
#include "util/aligned.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"

namespace riskan::core {

/// The attachment cut of one kernel slot: its loss_scale and occurrence
/// retention. An occurrence of a row is dead — no sample of it
/// can reach the layer — when dead(max_loss(row)) holds; see the header
/// comment for the bound. The default cut kills nothing (every max_loss is
/// >= 0 > -inf).
struct AttachmentCut {
  double loss_scale = 1.0;
  Money occ_retention = -std::numeric_limits<Money>::infinity();

  bool dead(Money max_loss) const noexcept {
    return loss_scale >= 0.0 && max_loss * loss_scale <= occ_retention;
  }
};

/// Precomputed per-ELT-row beta parameters (method of moments on the
/// normalised loss mean/sigma). Computing these once per table keeps the
/// per-occurrence hot path to a gamma-pair draw.
///
/// Two layouts over the same parameters: the AoS Param array serves the
/// scalar per-occurrence path, and a cache-line-packed LaneRow array
/// serves sample_lanes — the vector pass's batched path, which draws all
/// Philox blocks lane-parallel and runs the Marsaglia–Tsang first-attempt
/// fast path per lane, falling back to the scalar sampler (fresh stream,
/// in occurrence order) for the rejection tail. Fallback recomputes from
/// the stream's start, so a bail at any point costs draws, never
/// correctness. Occurrence rows arrive in random catalogue order, so
/// everything the fast path touches for one row — squeeze constants for
/// both marginals, boost exponents, exposure, flags — is packed into
/// exactly one 64-byte line.
class SecondarySampler {
 public:
  /// Precomputes parameters for every row of `elt`.
  explicit SecondarySampler(const data::EventLossTable& elt);

  /// Samples the loss for ELT row `row` under stream `stream`.
  /// Mean of the samples converges to the row's mean_loss.
  template <typename Rng>
  Money sample(std::size_t row, Rng& rng) const {
    const Param& p = params_[row];
    if (p.degenerate) {
      return p.exposure * p.mean_ratio;
    }
    return p.exposure * sample_beta(rng, p.alpha, p.beta);
  }

  /// Upper bound of every sample of `row`: the row's exposure.
  Money max_loss(std::size_t row) const noexcept { return params_[row].exposure; }

  /// Batched sampling for the vector pass: out[i] = sample(rows[i], s_i)
  /// where s_i is the occurrence stream (engine, hi_key, lo[i]) — exactly
  /// what the scalar kernel would construct per occurrence — except that an
  /// occurrence `cut` marks dead draws nothing and gets max_loss(rows[i])
  /// (or the degenerate row's value), which is at or below the cut, so the
  /// terms still map it to +0.0. `fast` / `tail` count drawn occurrences
  /// resolved by the lane fast path (live degenerate rows included) vs the
  /// scalar rejection-tail fallback; `skipped` counts the dead ones.
  void sample_lanes(const Philox4x32& engine, std::uint64_t hi_key,
                    const std::uint32_t* rows, const std::uint64_t* lo, std::size_t n,
                    const AttachmentCut& cut, Money* out, std::uint64_t& fast,
                    std::uint64_t& tail, std::uint64_t& skipped) const;

  std::size_t size() const noexcept { return params_.size(); }

  struct Param {
    double alpha = 1.0;
    double beta = 1.0;
    Money exposure = 0.0;
    double mean_ratio = 0.0;
    bool degenerate = false;
  };

 private:
  // Row classification bits of LaneRow::flags.
  static constexpr std::uint32_t kDegenerate = 1;  ///< no draws; value precomputed
  static constexpr std::uint32_t kBoostAlpha = 2;  ///< alpha < 1: one boost uniform
  static constexpr std::uint32_t kBoostBeta = 4;   ///< beta < 1: one boost uniform

  /// One cache line of everything sample_lanes reads for a row. The squeeze
  /// constants are precomputed per gamma marginal with the boosted shape
  /// where the scalar sampler would boost, via the same expressions
  /// sample_gamma evaluates — so the committed fast-path values are
  /// bit-identical. Degenerate rows stash their precomputed value in d_a
  /// (the gamma constants are never read for them).
  struct alignas(64) LaneRow {
    double d_a = 0.0;   ///< alpha marginal: shape - 1/3 (degenerate: the value)
    double c_a = 0.0;   ///< alpha marginal: 1/sqrt(9 d)
    double inv_a = 0.0; ///< 1/alpha (read only when kBoostAlpha)
    double d_b = 0.0;
    double c_b = 0.0;
    double inv_b = 0.0;
    Money exposure = 0.0;
    std::uint32_t flags = 0;
    std::uint32_t pad_ = 0;
  };
  static_assert(sizeof(LaneRow) == 64, "LaneRow must fill one cache line");

  std::vector<Param> params_;
  util::AlignedVector<LaneRow> lane_rows_;
};

/// Builds the Philox stream for one (contract, layer, trial, occurrence).
inline PhiloxStream occurrence_stream(const Philox4x32& engine, ContractId contract,
                                      LayerId layer, TrialId trial,
                                      std::uint32_t occurrence_seq) noexcept {
  const std::uint64_t hi =
      (static_cast<std::uint64_t>(contract) << 16) | static_cast<std::uint64_t>(layer);
  const std::uint64_t lo =
      (static_cast<std::uint64_t>(trial) << 20) | static_cast<std::uint64_t>(occurrence_seq);
  return PhiloxStream(engine, hi, lo);
}

}  // namespace riskan::core
