// The vectorized twin of core::batch::process_trials.
//
// One kernel per compiled ISA (AVX2: 4 Money lanes, NEON: 2), all stamped
// from the width-generic template in batch_simd_impl.hpp. The kernel walks
// trials in blocks (so the scalar per-trial bookkeeping amortizes over a
// long contiguous occurrence range instead of re-starting the vector loop
// every ~dozen hits) and classifies each gather group:
//
//   vector-compact — singleton compact-CSR group with no mask column: the
//       block's whole hit range is walked in W-wide chunks — rows gathered
//       (or the pre-sampled ground-up buffer loaded), loss_scale and the
//       LayerTerms occurrence algebra applied lane-parallel into an
//       occurrence-loss chunk — and a scalar fold pass then consumes that
//       chunk IN OCCURRENCE ORDER, advancing a trial cursor over the CSR
//       offsets, which is what keeps the annual sums and the OEP
//       accumulator bit-identical to the scalar kernel. The sub-width
//       remainder of each chunk runs the scalar ops in the same order (the
//       lane-tail contract).
//   scalar — everything else (mask columns, multi-slot shared-gather
//       groups) falls back to batch::process_trials for the (group,
//       block) — same code, so equality across the full feature matrix
//       holds by construction.
//
// Shared outputs (the portfolio roll-up, a shared OEP accumulator) see the
// same per-cell addition order as the scalar kernel: the block loop is
// outermost and groups run in plan order within it, so for any fixed trial
// the groups touch that trial's cells in the scalar kernel's group order,
// and within a (slot, trial) the fold is in occurrence order.
//
// Secondary uncertainty on vector slots samples each chunk's hits into a
// scratch buffer first (detail::fill_ground_up_compact_range below,
// compiled in the portable TU) and vectorizes everything downstream of the sample. The
// fill itself is batched: SecondarySampler::sample_lanes draws every
// occurrence's Philox blocks lane-parallel (util::PhiloxLanes) and resolves
// the common case — degenerate rows and gamma pairs that accept on the
// first Marsaglia–Tsang attempt — in a per-lane fast path, falling back to
// the scalar sampler on a fresh stream, in occurrence order, for the
// rejection tail. Each occurrence's stream is keyed exactly as the scalar
// kernel keys it, so the draws are identical; docs/architecture.md carries
// the full bit-identity argument.
#pragma once

#include <cstdint>
#include <span>

#include "core/portfolio_batch.hpp"

namespace riskan::core::batch {

/// Lane-utilization telemetry of simd kernel invocations, published by the
/// SimdExecutor as exec.simd.* counters.
struct SimdStats {
  std::uint64_t vector_occurrences = 0;  ///< processed in full W-wide chunks
  std::uint64_t tail_occurrences = 0;    ///< scalar sub-width remainders
  std::uint64_t scalar_occurrences = 0;  ///< scalar-fallback groups
  std::uint64_t sampler_fast = 0;        ///< secondary draws: lane fast path
  std::uint64_t sampler_tail = 0;        ///< secondary draws: scalar rejection tail

  SimdStats& operator+=(const SimdStats& o) noexcept {
    vector_occurrences += o.vector_occurrences;
    tail_occurrences += o.tail_occurrences;
    scalar_occurrences += o.scalar_occurrences;
    sampler_fast += o.sampler_fast;
    sampler_tail += o.sampler_tail;
    return *this;
  }
};

/// Shared signature of the per-ISA kernels: process_trials' arguments plus
/// the stats sink (chunk scratch lives on the kernel's own stack).
using SimdKernelFn = void (*)(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              SimdStats& stats);

// Per-ISA kernels; each is defined only when its RISKAN_SIMD_* macro is
// compiled in (exec::simd_dispatch() is the only referent).
void process_trials_simd_avx2(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              SimdStats& stats);
void process_trials_simd_neon(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              SimdStats& stats);

/// Vectorized finance::apply_occurrence over a contiguous ground-up buffer,
/// dispatched like the kernel (scalar loop when no ISA is active). The
/// kernel-level micro-surface: property tests assert bitwise equality with
/// the scalar call per element, bench_micro_kernels times it against the
/// scalar loop.
void apply_occurrence_lanes(const finance::LayerTerms& terms, const Money* ground_up,
                            std::size_t n, Money* occ);

// Per-ISA bodies of apply_occurrence_lanes, defined with their kernels.
void apply_occurrence_lanes_avx2(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ);
void apply_occurrence_lanes_neon(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ);

/// Vectorized running max of values[0..n) seeded with `init`, dispatched
/// like apply_occurrence_lanes (scalar loop when no ISA is active). Bitwise
/// order-invariant for this input class — finalize_oep accumulators are
/// non-NaN and >= +0.0 (sums of non-negative contributions seeded with
/// 0.0), so no -0.0/NaN tie can make the lane max pick differently from the
/// scalar scan.
Money max_range_lanes(const Money* values, std::size_t n, Money init);

// Per-ISA bodies of max_range_lanes, defined with their kernels.
Money max_range_lanes_avx2(const Money* values, std::size_t n, Money init);
Money max_range_lanes_neon(const Money* values, std::size_t n, Money init);

namespace detail {

// Scalar helpers the wide TUs link against instead of instantiating —
// compiled in portfolio_batch.cpp with the portable baseline flags, so a
// per-file -mavx2 TU never emits comdat PRNG/beta/finish code that could
// be picked for a pre-AVX2 host.

/// batch-internal conditioned_annual of one (slot, trial).
Money conditioned_annual_slot(const Slot& s, TrialId t);

/// batch-internal finish_slot_trial (aggregate terms, share, output sinks)
/// over a block of trials: annuals[t - t0] is trial t's occurrence sum.
void finish_slot_trials_out(const Slot& s, TrialId t0, TrialId t1, const Money* annuals);

/// Samples the ground-up losses of the compact hit range [k_begin, k_end)
/// of slot `s` into `out`, under the exact per-occurrence streams the
/// scalar kernel keys (contract, layer, trial_base + t, seq). `t_first` is
/// any trial at or before the one containing k_begin; the walk advances it
/// across the slot's hit offsets. Sampling goes through the batched
/// SecondarySampler::sample_lanes path; `stats` collects its fast/tail
/// split.
void fill_ground_up_compact_range(const Slot& s, const Philox4x32& philox,
                                  TrialId trial_base, TrialId t_first,
                                  std::uint64_t k_begin, std::uint64_t k_end, Money* out,
                                  SimdStats& stats);

}  // namespace detail

}  // namespace riskan::core::batch
