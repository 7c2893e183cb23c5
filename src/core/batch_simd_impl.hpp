// Width-generic body of the vectorized trial kernel — included by the
// per-ISA TUs (batch_simd_avx2.cpp / batch_simd_neon.cpp), which each
// supply a VecOps policy and stamp one kernel.
//
// A VecOps policy provides:
//   static constexpr std::size_t kWidth;     Money lanes per vector
//   using Vec;                               the vector type
//   Vec broadcast(Money) / load(const Money*) / store(Money*, Vec)
//   Vec mul / sub / min(Vec, Vec)
//   Vec gt_mask(Vec, Vec)                    all-ones lanes where a > b
//   Vec mask_and(Vec, Vec)                   bitwise and (value ∧ mask)
//   Vec gather(const Money* base, const std::uint32_t* idx)
//
// Shape: trials are walked in blocks of kTrialBlock; per (group, block)
// the vector paths compute occurrence losses for the block's contiguous
// hit range in kOccChunk-sized stack chunks (a pure vector pass — gather,
// scale, terms, store), then a scalar fold pass consumes each chunk in
// occurrence order, advancing a trial cursor over the CSR offsets. One
// extern finish call per (slot, block) flushes the annual sums. This keeps
// the hot loops long (the per-trial hit count is typically ~a dozen) and
// the portable-TU call overhead off the per-trial path.
//
// Bit-identity contract (tests enforce; docs/architecture.md documents):
// every lane computes exactly the scalar finance::apply_occurrence —
//   Deductible: excess = gu - ret; excess > 0 ? min(excess, lim) : 0
//   Franchise:  gu > ret ? min(gu, lim) : 0
// via sub/min/compare-mask on the same operands (IEEE ops are correctly
// rounded, min of distinct positives picks the same value, the masked-out
// lanes are exact +0.0), and the fold pass consumes the occurrence losses
// in occurrence order per (slot, trial), so every reduction order is the
// scalar kernel's. No FMA, no reassociation, no reduced precision
// anywhere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/batch_simd.hpp"
#include "finance/terms.hpp"

namespace riskan::core::batch {

namespace impl {

/// Trials per finish batch (bounds the stack annuals buffer).
inline constexpr std::size_t kTrialBlock = 1024;
/// Occurrences per vector chunk (bounds the stack occ/ground-up buffers;
/// 2048 Money = 16 KiB each, L1/L2-resident with the gather sources).
inline constexpr std::size_t kOccChunk = 2048;

/// Whether the kernel runs a (group, block) on the vector path: singleton
/// groups without a mask column. loss_scale / conditioned_ground_up
/// vectorize; a mask column re-keys sampling per lane and stays scalar, as
/// do multi-slot shared-gather groups.
inline bool vector_group(const Slot* gs, std::uint32_t gsize) noexcept {
  return gsize == 1 && gs[0].mask_seq == nullptr;
}

/// The occurrence algebra on W lanes; see the header contract above.
template <typename V>
inline typename V::Vec occurrence_lanes(const finance::LayerTerms& terms,
                                        typename V::Vec gu) noexcept {
  const auto ret = V::broadcast(terms.occ_retention);
  const auto lim = V::broadcast(terms.occ_limit);
  if (terms.retention_kind == finance::RetentionKind::Deductible) {
    const auto excess = V::sub(gu, ret);
    return V::mask_and(V::min(excess, lim), V::gt_mask(excess, V::broadcast(0.0)));
  }
  return V::mask_and(V::min(gu, lim), V::gt_mask(gu, ret));
}

/// One vector-compact (slot, block): chunked vector pass over the block's
/// hit range, occurrence-order fold with a trial cursor, one batched
/// finish.
template <typename V>
inline void vec_compact_block(const Slot& s, const Philox4x32& philox, bool secondary,
                              TrialId trial_base, TrialId t0, TrialId t1,
                              std::span<const std::uint64_t> yelt_offsets,
                              SimdStats& stats) {
  constexpr std::size_t W = V::kWidth;
  alignas(64) Money occ_chunk[kOccChunk];
  alignas(64) Money gu_chunk[kOccChunk];
  Money annuals[kTrialBlock];
  const bool conditioned = s.conditioned_ground_up >= 0.0;
  for (TrialId t = t0; t < t1; ++t) {
    annuals[t - t0] = conditioned ? detail::conditioned_annual_slot(s, t) : 0.0;
  }

  const std::uint64_t h0 = s.hit_offsets[t0];
  const std::uint64_t h1 = s.hit_offsets[t1];
  const Money scale = s.loss_scale;
  const bool scaled = scale != 1.0;
  const auto vscale = V::broadcast(scale);
  Money* const accum = s.occurrence_accum;
  const Money share = s.terms.share;

  TrialId t = t0;  // fold cursor: the trial whose hits are being consumed
  for (std::uint64_t c0 = h0; c0 < h1; c0 += kOccChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kOccChunk, h1 - c0));
    const std::uint32_t* rows = s.rows + c0;
    const std::uint32_t* seqs = s.seqs + c0;
    const Money* gu = gu_chunk;
    if (secondary) {
      detail::fill_ground_up_compact_range(s, philox, trial_base, t, c0, c0 + n, gu_chunk,
                                           stats);
    }

    std::size_t k = 0;
    for (; k + W <= n; k += W) {
      auto v = secondary ? V::load(gu + k) : V::gather(s.means, rows + k);
      if (scaled) {
        v = V::mul(v, vscale);
      }
      V::store(occ_chunk + k, occurrence_lanes<V>(s.terms, v));
    }
    stats.vector_occurrences += k;
    stats.tail_occurrences += n - k;
    for (; k < n; ++k) {
      Money g = secondary ? gu[k] : s.means[rows[k]];
      if (scaled) {
        g *= scale;
      }
      occ_chunk[k] = finance::apply_occurrence(s.terms, g);
    }

    // Occurrence-order fold, one CSR trial segment at a time: the annual
    // sums and the OEP accumulator see the losses exactly as the scalar
    // loop would, with the annual in a register per segment.
    std::size_t j = 0;
    while (j < n) {
      while (c0 + j >= s.hit_offsets[t + 1]) {
        ++t;
      }
      const std::size_t seg_end =
          static_cast<std::size_t>(std::min<std::uint64_t>(s.hit_offsets[t + 1] - c0, n));
      Money a = annuals[t - t0];
      if (accum != nullptr) {
        const std::uint64_t trial_begin = yelt_offsets[t];
        for (; j < seg_end; ++j) {
          const Money occ = occ_chunk[j];
          a += occ;
          if (occ > 0.0) {
            accum[trial_begin + seqs[j]] += occ * share;
          }
        }
      } else {
        for (; j < seg_end; ++j) {
          a += occ_chunk[j];
        }
      }
      annuals[t - t0] = a;
    }
  }
  detail::finish_slot_trials_out(s, t0, t1, annuals);
}

/// The kernel: per (group, trial-block), the vector path for singleton
/// unmasked groups and batch::process_trials for the rest. The block loop
/// is outermost and groups run in plan order, so shared output cells
/// accumulate in the scalar kernel's order.
template <typename V>
void process_trials_simd(std::span<const Slot> slots, std::span<const Group> groups,
                         std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                         bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                         std::span<Money> annual_scratch, SimdStats& stats) {
  for (TrialId b0 = lo; b0 < hi; b0 += static_cast<TrialId>(kTrialBlock)) {
    const TrialId b1 = std::min<TrialId>(hi, b0 + static_cast<TrialId>(kTrialBlock));
    for (const Group& group : groups) {
      const Slot* gs = slots.data() + group.begin;
      if (vector_group(gs, group.size)) {
        vec_compact_block<V>(gs[0], philox, secondary, trial_base, b0, b1, yelt_offsets,
                             stats);
        continue;
      }
      // Bit-identical by construction: the scalar kernel itself, one
      // (group, block) at a time (trial-major group order within the block
      // preserved per shared output cell — see the header).
      const Group local{0, group.size};
      process_trials(std::span<const Slot>(gs, group.size), {&local, 1}, yelt_offsets, philox,
                     secondary, trial_base, b0, b1, annual_scratch);
      stats.scalar_occurrences += gs[0].hit_offsets[b1] - gs[0].hit_offsets[b0];
    }
  }
}

/// Generic body of apply_occurrence_lanes for one ISA: full-width chunks
/// through the vector algebra, scalar remainder.
template <typename V>
void apply_occurrence_lanes_impl(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ) {
  constexpr std::size_t W = V::kWidth;
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    V::store(occ + k, occurrence_lanes<V>(terms, V::load(ground_up + k)));
  }
  for (; k < n; ++k) {
    occ[k] = finance::apply_occurrence(terms, ground_up[k]);
  }
}

}  // namespace impl

}  // namespace riskan::core::batch
