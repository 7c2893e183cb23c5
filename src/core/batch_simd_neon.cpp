// NEON stamp of the vectorized trial kernel: 2 Money lanes per float64x2_t.
// aarch64 has no hardware gather, so the gather primitive assembles lanes
// with scalar loads — the per-lane term algebra and the occurrence-order
// reduction contract are identical to the AVX2 stamp.
#ifdef RISKAN_SIMD_NEON

#include <arm_neon.h>

#include "core/batch_simd_impl.hpp"

namespace riskan::core::batch {

namespace {

struct NeonOps {
  static constexpr std::size_t kWidth = 2;
  using Vec = float64x2_t;

  static Vec broadcast(Money x) noexcept { return vdupq_n_f64(x); }
  static Vec load(const Money* p) noexcept { return vld1q_f64(p); }
  static void store(Money* p, Vec v) noexcept { vst1q_f64(p, v); }
  static Vec mul(Vec a, Vec b) noexcept { return vmulq_f64(a, b); }
  static Vec sub(Vec a, Vec b) noexcept { return vsubq_f64(a, b); }
  static Vec min(Vec a, Vec b) noexcept {
    // vminq_f64 is IEEE minNum; bitwise-match the x86/scalar pick instead:
    // a < b ? a : b (equal positives share a bit pattern, so the tie leg
    // cannot diverge).
    return vbslq_f64(vcltq_f64(a, b), a, b);
  }
  static Vec gt_mask(Vec a, Vec b) noexcept {
    return vreinterpretq_f64_u64(vcgtq_f64(a, b));
  }
  static Vec mask_and(Vec v, Vec m) noexcept {
    return vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(v), vreinterpretq_u64_f64(m)));
  }

  static Vec gather(const Money* base, const std::uint32_t* idx) noexcept {
    Vec v = vdupq_n_f64(0.0);
    v = vsetq_lane_f64(base[idx[0]], v, 0);
    v = vsetq_lane_f64(base[idx[1]], v, 1);
    return v;
  }
};

}  // namespace

void process_trials_simd_neon(std::span<const Slot> slots, std::span<const Group> groups,
                              std::span<const std::uint64_t> yelt_offsets,
                              const Philox4x32& philox, bool secondary, TrialId trial_base,
                              TrialId lo, TrialId hi, std::span<Money> annual_scratch,
                              SimdStats& stats) {
  impl::process_trials_simd<NeonOps>(slots, groups, yelt_offsets, philox, secondary,
                                     trial_base, lo, hi, annual_scratch, stats);
}

void apply_occurrence_lanes_neon(const finance::LayerTerms& terms, const Money* ground_up,
                                 std::size_t n, Money* occ) {
  impl::apply_occurrence_lanes_impl<NeonOps>(terms, ground_up, n, occ);
}

Money max_range_lanes_neon(const Money* values, std::size_t n, Money init) {
  // Safe to reorder bitwise for finalize_oep's input class (non-NaN,
  // >= +0.0): equal non-negative doubles share one bit pattern, so the
  // tie leg of vmaxq cannot diverge from std::max's.
  std::size_t k = 0;
  float64x2_t m = vdupq_n_f64(init);
  for (; k + 2 <= n; k += 2) {
    m = vmaxq_f64(m, vld1q_f64(values + k));
  }
  Money best = std::max(vgetq_lane_f64(m, 0), vgetq_lane_f64(m, 1));
  for (; k < n; ++k) {
    best = std::max(best, values[k]);
  }
  return best;
}

}  // namespace riskan::core::batch

#endif  // RISKAN_SIMD_NEON
