#include "finance/premium.hpp"

#include <cmath>
#include <vector>

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
  OnlineStats stats;
  for (const Money loss : trial_losses) {
    stats.add(loss);
  }
  std::vector<double> tail(trial_losses.begin(), trial_losses.end());
  sort_upper_tail(tail, 0.99);
  LossStatistics out;
  out.expected_loss = stats.mean();
  out.loss_stdev = std::sqrt(stats.sample_variance());
  out.tvar_99 = tail_mean_above(tail, 0.99);
  out.pml_250 = quantile_sorted(tail, 1.0 - 1.0 / 250.0);
  return out;
}

}  // namespace riskan::finance
