// Online and batch statistics used by metrics, benchmarks, and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace riskan {

/// Welford online accumulator: numerically stable running mean/variance,
/// mergeable (parallel reductions combine partials with `merge`).
class OnlineStats {
 public:
  void add(double x) noexcept;

  /// Combines two accumulators (Chan et al. parallel variance update).
  void merge(const OnlineStats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const noexcept;
  /// Sample (n-1) variance; 0 for fewer than 2 samples.
  double sample_variance() const noexcept;
  double stdev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact empirical quantile with linear interpolation (type-7, the
/// R/NumPy default). Sorts a copy; O(n log n).
double quantile(std::span<const double> values, double p);

/// Quantile over data the caller has already sorted ascending; O(1).
double quantile_sorted(std::span<const double> sorted, double p);

/// Mean of values strictly above the given threshold quantile — the building
/// block of TVaR. Returns the quantile itself when no value exceeds it.
double tail_mean_above(std::span<const double> sorted, double p);

/// Orders `values` just enough that quantile_sorted and tail_mean_above
/// return their full-sort answers, bit for bit, at every level >= p: the
/// order statistics from index floor(p·(n−1)) up are sorted in place and
/// everything below them is no larger. An nth_element plus a sort of the
/// tail instead of a full sort.
void sort_upper_tail(std::span<double> values, double p);

/// The upper order statistics of a sample, selected without copying or
/// ordering the whole sample: the values of rank floor(p·(n−1)) and up,
/// sorted ascending. At any level q >= p, quantile(q) and
/// tail_mean_above(q) return quantile_sorted and tail_mean_above of the
/// fully sorted sample, bit for bit (for samples without NaN or -0.0).
///
/// The selection keeps the values at or above a pivot: a quantile of a
/// deterministic strided sample, placed so that about twice the needed
/// count qualifies. Only those candidates are ordered. When fewer than
/// needed qualify (a sample whose pivot overshoots) or the sample is
/// small, it falls back to sort_upper_tail over a full copy.
class UpperTail {
 public:
  UpperTail(std::span<const double> values, double p);

  double quantile(double q) const;
  double tail_mean_above(double q) const;

  /// Ranks first() .. n - 1 of the sorted sample.
  std::span<const double> sorted() const noexcept { return top_; }
  std::size_t first() const noexcept { return first_; }

 private:
  std::size_t n_ = 0;
  std::size_t first_ = 0;
  double level_ = 0.0;
  std::vector<double> top_;
};

/// Fixed-width histogram for diagnostics and distribution shape tests.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::uint64_t bin_count(std::size_t i) const;
  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// P² (Jain & Chlamtac) streaming quantile estimator: constant memory,
/// used where YLT-scale streams cannot be buffered (DFA terabyte claim).
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x) noexcept;
  /// Current estimate; exact through the first 5 samples (the markers ARE
  /// the sorted sample until the 6th arrival starts moving them).
  double value() const noexcept;
  std::uint64_t count() const noexcept { return count_; }

 private:
  double p_;
  std::uint64_t count_ = 0;
  double heights_[5] = {};
  double positions_[5] = {};
  double desired_[5] = {};
  double increments_[5] = {};
};

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// (relative error < 1.2e-9 over (0,1)).
double normal_quantile(double p);

/// Student-t quantile at probability `p` with `dof` degrees of freedom.
/// Exact closed forms for dof 1 and 2; a Cornish–Fisher expansion of the
/// normal quantile above that (within ~1% of tabulated values at dof >= 3,
/// converging quickly with dof) — plenty for confidence-interval
/// construction, which is its one job here.
double students_t_quantile(double p, double dof);

/// Batch-means confidence intervals for a streaming estimator: feed one
/// value per batch (a trial block's sample metric) and read a Student-t
/// interval for the underlying mean. Batches of equal size over an i.i.d.
/// stream make the batch values i.i.d. themselves, so the t interval is
/// valid for nonlinear metrics (quantiles, tail means) where per-sample
/// CLT machinery is not — the classic MC simulation-output technique, and
/// the stopping oracle of core/adaptive.
class BatchMeans {
 public:
  void add(double batch_value) noexcept { stats_.add(batch_value); }

  std::uint64_t batches() const noexcept { return stats_.count(); }
  double mean() const noexcept { return stats_.mean(); }

  /// Two-sided CI half-width at `confidence` (e.g. 0.95); +infinity until
  /// 2 batches exist (no variance estimate yet).
  double half_width(double confidence) const;

 private:
  OnlineStats stats_;
};

}  // namespace riskan
