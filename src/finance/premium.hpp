// Premium calculators — turning a layer's YLT into a price.
//
// This is the business case behind the paper's real-time claim: "A 1
// million trial aggregate simulation on a typical contract only takes 25
// seconds and can therefore support real-time pricing." Pricing a layer
// means simulating its YLT and loading the expected loss for volatility
// and capital; the RealTimePricer (src/core/pricer.hpp) wires the engine to
// these formulas.
#pragma once

#include <span>

#include "util/types.hpp"

namespace riskan::finance {

/// Inputs distilled from a simulated layer YLT.
struct LossStatistics {
  Money expected_loss = 0.0;
  Money loss_stdev = 0.0;
  Money tvar_99 = 0.0;  ///< tail value at risk at the 99th percentile
  Money pml_250 = 0.0;  ///< 1-in-250 probable maximum loss (99.6% quantile)
};

/// Pricing loadings.
struct PricingTerms {
  double expense_ratio = 0.10;      ///< brokerage + expenses, fraction of premium
  double volatility_load = 0.30;    ///< fraction of loss stdev charged
  double capital_load = 0.05;       ///< cost of capital on TVaR99
  double target_margin = 0.05;      ///< underwriting profit margin
};

/// Technical premium: (EL + vol·σ + cap·TVaR99) grossed up for expenses and
/// margin. The standard-deviation principle with a tail-capital add-on.
Money technical_premium(const LossStatistics& stats, const PricingTerms& terms);

/// Rate on line: premium / occurrence limit — the market's unit price of
/// catastrophe capacity.
double rate_on_line(Money premium, Money occ_limit);

/// Computes LossStatistics from a simulated per-trial loss sample. Both tail
/// reads come off one partial order of a copy (sort_upper_tail at 0.99), and
/// match a full sort bit for bit.
LossStatistics summarise_losses(std::span<const Money> trial_losses);

}  // namespace riskan::finance
