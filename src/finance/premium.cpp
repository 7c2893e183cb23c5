#include "finance/premium.hpp"

#include <cmath>
#include <cstdint>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::finance {

Money technical_premium(const LossStatistics& stats, const PricingTerms& terms) {
  RISKAN_REQUIRE(terms.expense_ratio >= 0.0 && terms.expense_ratio < 1.0,
                 "expense ratio must lie in [0,1)");
  RISKAN_REQUIRE(terms.target_margin >= 0.0 && terms.target_margin < 1.0,
                 "target margin must lie in [0,1)");
  const Money risk_cost = stats.expected_loss + terms.volatility_load * stats.loss_stdev +
                          terms.capital_load * stats.tvar_99;
  return risk_cost / (1.0 - terms.expense_ratio - terms.target_margin);
}

double rate_on_line(Money premium, Money occ_limit) {
  RISKAN_REQUIRE(occ_limit > 0.0, "rate on line needs a positive limit");
  return premium / occ_limit;
}

LossStatistics summarise_losses(std::span<const Money> trial_losses) {
  RISKAN_REQUIRE(!trial_losses.empty(), "cannot summarise an empty loss sample");
  // Welford's update in trial order: OnlineStats::add's operations on the
  // two fields read here (mean and M2), inline, so the figures match it bit
  // for bit.
  double mean = 0.0;
  double m2 = 0.0;
  std::uint64_t count = 0;
  for (const Money loss : trial_losses) {
    ++count;
    const double delta = loss - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (loss - mean);
  }
  const UpperTail tail(trial_losses, 0.99);
  LossStatistics out;
  out.expected_loss = mean;
  out.loss_stdev = std::sqrt(count < 2 ? 0.0 : m2 / static_cast<double>(count - 1));
  out.tvar_99 = tail.tail_mean_above(0.99);
  out.pml_250 = tail.quantile(1.0 - 1.0 / 250.0);
  return out;
}

}  // namespace riskan::finance
