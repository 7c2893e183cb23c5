#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace riskan {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double OnlineStats::sample_variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stdev() const noexcept {
  return std::sqrt(variance());
}

double quantile(std::span<const double> values, double p) {
  RISKAN_REQUIRE(!values.empty(), "quantile of empty sample");
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, p);
}

namespace {

/// Type-7 quantile of a sorted sample of n values read through `at(i)` —
/// the one formula behind quantile_sorted and UpperTail::quantile.
template <typename At>
double quantile_at(std::size_t n, double p, const At& at) {
  if (n == 1) {
    return at(0);
  }
  const double h = p * static_cast<double>(n - 1);
  const auto idx = static_cast<std::size_t>(h);
  if (idx + 1 >= n) {
    return at(n - 1);
  }
  const double frac = h - static_cast<double>(idx);
  return at(idx) + frac * (at(idx + 1) - at(idx));
}

/// Mean of the values above the level-p quantile, summed from the largest
/// down; `lowest` is the lowest rank `at` can read.
template <typename At>
double tail_mean_at(std::size_t n, double p, std::size_t lowest, const At& at) {
  const double var = quantile_at(n, p, at);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = n; i > lowest && at(i - 1) > var; --i) {
    sum += at(i - 1);
    ++count;
  }
  return count == 0 ? var : sum / static_cast<double>(count);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double p) {
  RISKAN_REQUIRE(!sorted.empty(), "quantile of empty sample");
  RISKAN_REQUIRE(p >= 0.0 && p <= 1.0, "quantile level must lie in [0,1]");
  return quantile_at(sorted.size(), p, [sorted](std::size_t i) { return sorted[i]; });
}

double tail_mean_above(std::span<const double> sorted, double p) {
  RISKAN_REQUIRE(!sorted.empty(), "tail_mean_above of empty sample");
  RISKAN_REQUIRE(p >= 0.0 && p <= 1.0, "quantile level must lie in [0,1]");
  return tail_mean_at(sorted.size(), p, 0, [sorted](std::size_t i) { return sorted[i]; });
}

void sort_upper_tail(std::span<double> values, double p) {
  RISKAN_REQUIRE(p >= 0.0 && p <= 1.0, "tail level must lie in [0,1]");
  if (values.empty()) {
    return;
  }
  // The index quantile_sorted computes for level p; higher levels read at
  // or above it.
  const auto first = values.begin() + static_cast<std::ptrdiff_t>(
                                          p * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), first, values.end());
  std::sort(first, values.end());
}

UpperTail::UpperTail(std::span<const double> values, double p)
    : n_(values.size()), level_(p) {
  RISKAN_REQUIRE(!values.empty(), "upper tail of empty sample");
  RISKAN_REQUIRE(p >= 0.0 && p <= 1.0, "tail level must lie in [0,1]");
  first_ = static_cast<std::size_t>(p * static_cast<double>(n_ - 1));
  const std::size_t needed = n_ - first_;

  // Strided sample of about kSample values; the pivot is the sample value
  // with about twice the needed share (plus slack) at or above it.
  constexpr std::size_t kSample = 4096;
  constexpr std::size_t kSlack = 16;
  if (n_ >= 4 * kSample) {
    const std::size_t stride = n_ / kSample;
    std::vector<double> sample;
    sample.reserve(n_ / stride + 1);
    for (std::size_t i = 0; i < n_; i += stride) {
      sample.push_back(values[i]);
    }
    const std::size_t share = (needed * sample.size() + n_ - 1) / n_;
    const std::size_t above = std::min(sample.size(), 2 * share + kSlack);
    const auto pivot_at = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() - above);
    std::nth_element(sample.begin(), pivot_at, sample.end());
    const double pivot = *pivot_at;

    top_.reserve(2 * above * stride);
    for (const double v : values) {
      if (v >= pivot) {
        top_.push_back(v);
      }
    }
    // Every value below the pivot is below every candidate, so the needed
    // ranks are the largest candidates once there are enough of them.
    if (top_.size() >= needed) {
      const auto from = top_.end() - static_cast<std::ptrdiff_t>(needed);
      std::nth_element(top_.begin(), from, top_.end());
      top_.erase(top_.begin(), from);
      std::sort(top_.begin(), top_.end());
      return;
    }
  }
  top_.assign(values.begin(), values.end());
  sort_upper_tail(top_, p);
  top_.erase(top_.begin(), top_.begin() + static_cast<std::ptrdiff_t>(first_));
}

double UpperTail::quantile(double q) const {
  RISKAN_REQUIRE(q >= level_ && q <= 1.0, "upper-tail quantile below the selected level");
  return quantile_at(n_, q, [this](std::size_t i) { return top_[i - first_]; });
}

double UpperTail::tail_mean_above(double q) const {
  RISKAN_REQUIRE(q >= level_ && q <= 1.0, "upper-tail mean below the selected level");
  return tail_mean_at(n_, q, first_, [this](std::size_t i) { return top_[i - first_]; });
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), counts_(bins, 0) {
  RISKAN_REQUIRE(bins > 0, "histogram needs at least one bin");
  RISKAN_REQUIRE(hi > lo, "histogram range must be non-empty");
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto bin = static_cast<std::size_t>((x - lo_) / width_);
  if (bin >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[bin];
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  RISKAN_REQUIRE(i < counts_.size(), "histogram bin out of range");
  return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  RISKAN_REQUIRE(i < counts_.size(), "histogram bin out of range");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  return bin_lo(i) + width_;
}

P2Quantile::P2Quantile(double p) : p_(p) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "P2 quantile level must lie in (0,1)");
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * p;
  desired_[2] = 1.0 + 4.0 * p;
  desired_[3] = 3.0 + 2.0 * p;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = p / 2.0;
  increments_[2] = p;
  increments_[3] = (1.0 + p) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::add(double x) noexcept {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) {
        positions_[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }
  ++count_;

  int cell;
  if (x < heights_[0]) {
    heights_[0] = x;
    cell = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= heights_[cell + 1]) {
      ++cell;
    }
  }

  for (int i = cell + 1; i < 5; ++i) {
    positions_[i] += 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    desired_[i] += increments_[i];
  }

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right_gap = positions_[i + 1] - positions_[i];
    const double left_gap = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction.
      const double np = positions_[i] + sign;
      const double q =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + sign) * (heights_[i + 1] - heights_[i]) /
                   (positions_[i + 1] - positions_[i]) +
               (positions_[i + 1] - positions_[i] - sign) * (heights_[i] - heights_[i - 1]) /
                   (positions_[i] - positions_[i - 1]));
      if (heights_[i - 1] < q && q < heights_[i + 1]) {
        heights_[i] = q;
      } else {
        // Fall back to linear prediction toward the neighbour.
        const int j = sign > 0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
      }
      positions_[i] = np;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) {
    return 0.0;
  }
  if (count_ <= 5) {
    // Exact quantile over the few samples seen so far. The <= is load-
    // bearing: at exactly 5 samples the markers are still the sorted
    // sample, and returning heights_[2] (the median marker) regardless of
    // p — the pre-fix behaviour — was a cliff at p near 0 or 1.
    double copy[5];
    std::copy(heights_, heights_ + count_, copy);
    std::sort(copy, copy + count_);
    const double h = p_ * static_cast<double>(count_ - 1);
    const auto idx = static_cast<std::size_t>(h);
    if (idx + 1 >= count_) {
      return copy[count_ - 1];
    }
    return copy[idx] + (h - static_cast<double>(idx)) * (copy[idx + 1] - copy[idx]);
  }
  return heights_[2];
}

double normal_quantile(double p) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "normal quantile level must lie in (0,1)");
  // Acklam's rational approximation with the canonical coefficients.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double students_t_quantile(double p, double dof) {
  RISKAN_REQUIRE(p > 0.0 && p < 1.0, "t quantile level must lie in (0,1)");
  RISKAN_REQUIRE(dof >= 1.0, "t quantile needs at least 1 degree of freedom");
  if (dof == 1.0) {
    // Cauchy.
    constexpr double pi = 3.14159265358979323846;
    return std::tan(pi * (p - 0.5));
  }
  if (dof == 2.0) {
    return (2.0 * p - 1.0) / std::sqrt(2.0 * p * (1.0 - p));
  }
  // Cornish–Fisher expansion about the normal quantile (Abramowitz &
  // Stegun 26.7.5, through the 1/dof^3 term).
  const double z = normal_quantile(p);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  const double v = dof;
  return z + (z3 + z) / (4.0 * v) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * v * v) +
         (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * v * v * v);
}

double BatchMeans::half_width(double confidence) const {
  RISKAN_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "confidence level must lie in (0,1)");
  if (stats_.count() < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(stats_.count());
  const double t = students_t_quantile(0.5 + confidence / 2.0, n - 1.0);
  return t * std::sqrt(stats_.sample_variance() / n);
}

}  // namespace riskan
