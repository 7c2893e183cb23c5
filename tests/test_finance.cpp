// Financial terms algebra, contracts/portfolios, premium formulas.
#include <gtest/gtest.h>

#include <vector>

#include "finance/contract.hpp"
#include "finance/premium.hpp"
#include "finance/terms.hpp"
#include "util/require.hpp"

namespace riskan::finance {
namespace {

LayerTerms simple_terms() {
  LayerTerms terms;
  terms.occ_retention = 100.0;
  terms.occ_limit = 200.0;
  terms.agg_retention = 50.0;
  terms.agg_limit = 300.0;
  terms.share = 0.8;
  return terms;
}

TEST(Terms, OccurrenceOracle) {
  const auto terms = simple_terms();
  EXPECT_DOUBLE_EQ(apply_occurrence(terms, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_occurrence(terms, 100.0), 0.0);    // at retention
  EXPECT_DOUBLE_EQ(apply_occurrence(terms, 150.0), 50.0);   // inside layer
  EXPECT_DOUBLE_EQ(apply_occurrence(terms, 300.0), 200.0);  // at exhaustion
  EXPECT_DOUBLE_EQ(apply_occurrence(terms, 1e9), 200.0);    // capped
}

TEST(Terms, AggregateOracle) {
  const auto terms = simple_terms();
  EXPECT_DOUBLE_EQ(apply_aggregate(terms, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_aggregate(terms, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_aggregate(terms, 150.0), 100.0);
  EXPECT_DOUBLE_EQ(apply_aggregate(terms, 350.0), 300.0);
  EXPECT_DOUBLE_EQ(apply_aggregate(terms, 1e9), 300.0);
}

TEST(Terms, YearComposesOccurrenceThenAggregate) {
  const auto terms = simple_terms();
  // Occurrences: 150 -> 50, 400 -> 200, 90 -> 0. Annual = 250.
  // Aggregate: min(max(250-50,0),300) = 200. Share 0.8 -> 160.
  const std::vector<Money> losses{150.0, 400.0, 90.0};
  EXPECT_DOUBLE_EQ(apply_year(terms, losses), 160.0);
}

TEST(Terms, YearOfNothingIsZero) {
  const auto terms = simple_terms();
  EXPECT_DOUBLE_EQ(apply_year(terms, {}), 0.0);
}

class TermsMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(TermsMonotonicity, OccurrenceIsMonotoneAndBounded) {
  const auto terms = simple_terms();
  const double x = GetParam();
  const double y = x + 13.0;
  EXPECT_LE(apply_occurrence(terms, x), apply_occurrence(terms, y));
  EXPECT_GE(apply_occurrence(terms, x), 0.0);
  EXPECT_LE(apply_occurrence(terms, x), terms.occ_limit);
  // 1-Lipschitz: the layer never amplifies a loss increment.
  EXPECT_LE(apply_occurrence(terms, y) - apply_occurrence(terms, x), 13.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(GroundUpSweep, TermsMonotonicity,
                         ::testing::Values(0.0, 50.0, 99.0, 100.0, 101.0, 250.0, 299.0,
                                           300.0, 1e4, 1e8));

TEST(Terms, ValidationCatchesBadValues) {
  LayerTerms terms = simple_terms();
  terms.share = 0.0;
  EXPECT_THROW(terms.validate(), ContractViolation);
  terms = simple_terms();
  terms.share = 1.5;
  EXPECT_THROW(terms.validate(), ContractViolation);
  terms = simple_terms();
  terms.occ_retention = -1.0;
  EXPECT_THROW(terms.validate(), ContractViolation);
  terms = simple_terms();
  terms.occ_limit = 0.0;
  EXPECT_THROW(terms.validate(), ContractViolation);
  EXPECT_NO_THROW(simple_terms().validate());
  EXPECT_NO_THROW(LayerTerms::typical().validate());
}

TEST(Reinstatements, ImpliedAggregateLimit) {
  Reinstatements r;
  r.count = 2;
  EXPECT_DOUBLE_EQ(r.implied_agg_limit(60e6), 180e6);
  r.count = 0;
  EXPECT_DOUBLE_EQ(r.implied_agg_limit(60e6), 60e6);
}

TEST(Reinstatements, PremiumProRata) {
  Reinstatements r;
  r.count = 1;
  r.premium_rate = 1.0;
  // Half the limit consumed -> half the upfront premium due.
  EXPECT_DOUBLE_EQ(r.premium_due(30e6, 60e6, 10e6), 5e6);
  // Full limit consumed -> one full reinstatement.
  EXPECT_DOUBLE_EQ(r.premium_due(60e6, 60e6, 10e6), 10e6);
  // Consumption beyond count * limit is capped.
  EXPECT_DOUBLE_EQ(r.premium_due(500e6, 60e6, 10e6), 10e6);
  // No reinstatements -> no premium.
  r.count = 0;
  EXPECT_DOUBLE_EQ(r.premium_due(60e6, 60e6, 10e6), 0.0);
}

TEST(Contract, RequiresLayersAndValidTerms) {
  auto elt = data::EventLossTable::from_rows({{1, 10.0, 1.0, 50.0}});
  EXPECT_THROW(Contract(0, elt, {}), ContractViolation);

  Layer bad;
  bad.terms.share = -1.0;
  EXPECT_THROW(Contract(0, elt, {bad}), ContractViolation);

  Layer good;
  good.terms = simple_terms();
  const Contract contract(7, elt, {good}, Region::Europe, LineOfBusiness::Marine,
                          Peril::Flood);
  EXPECT_EQ(contract.id(), 7u);
  EXPECT_EQ(contract.region(), Region::Europe);
  EXPECT_EQ(contract.lob(), LineOfBusiness::Marine);
  EXPECT_EQ(contract.peril(), Peril::Flood);
  EXPECT_DOUBLE_EQ(contract.elt_mean_mass(), 10.0);
}

TEST(Portfolio, GeneratorHonoursConfig) {
  PortfolioGenConfig config;
  config.contracts = 25;
  config.catalog_events = 1'000;
  config.elt_rows = 100;
  config.layers_per_contract = 2;
  config.seed = 3;
  const auto portfolio = generate_portfolio(config);

  EXPECT_EQ(portfolio.size(), 25u);
  EXPECT_EQ(portfolio.layer_count(), 50u);
  EXPECT_GT(portfolio.elt_byte_size(), 0u);
  for (const auto& contract : portfolio.contracts()) {
    EXPECT_EQ(contract.elt().size(), 100u);
    EXPECT_EQ(contract.layers().size(), 2u);
    for (const auto id : contract.elt().event_ids()) {
      EXPECT_LT(id, 1'000u);
    }
    for (const auto& layer : contract.layers()) {
      EXPECT_NO_THROW(layer.terms.validate());
      EXPECT_GT(layer.upfront_premium, 0.0);
    }
  }
}

TEST(Portfolio, GeneratorDeterministicInSeed) {
  PortfolioGenConfig config;
  config.contracts = 5;
  config.catalog_events = 200;
  config.elt_rows = 50;
  const auto a = generate_portfolio(config);
  const auto b = generate_portfolio(config);
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a.contract(c).elt().size(), b.contract(c).elt().size());
    for (std::size_t i = 0; i < a.contract(c).elt().size(); ++i) {
      ASSERT_EQ(a.contract(c).elt().event_ids()[i], b.contract(c).elt().event_ids()[i]);
      ASSERT_DOUBLE_EQ(a.contract(c).elt().mean_loss()[i],
                       b.contract(c).elt().mean_loss()[i]);
    }
  }
}

TEST(Portfolio, GeneratorDenseFootprint) {
  PortfolioGenConfig config;
  config.contracts = 2;
  config.catalog_events = 100;
  config.elt_rows = 90;  // dense: exercises the Bernoulli-sweep path
  const auto portfolio = generate_portfolio(config);
  for (const auto& contract : portfolio.contracts()) {
    EXPECT_EQ(contract.elt().size(), 90u);
  }
}

TEST(Portfolio, GeneratorRejectsImpossibleFootprint) {
  PortfolioGenConfig config;
  config.elt_rows = 1'000;
  config.catalog_events = 100;
  EXPECT_THROW((void)generate_portfolio(config), ContractViolation);
}

TEST(Premium, TechnicalPremiumFormula) {
  LossStatistics stats;
  stats.expected_loss = 100.0;
  stats.loss_stdev = 50.0;
  stats.tvar_99 = 400.0;
  PricingTerms terms;
  terms.expense_ratio = 0.10;
  terms.volatility_load = 0.30;
  terms.capital_load = 0.05;
  terms.target_margin = 0.05;
  // risk cost = 100 + 15 + 20 = 135; grossed by 1/(1-0.15).
  EXPECT_NEAR(technical_premium(stats, terms), 135.0 / 0.85, 1e-9);
}

TEST(Premium, RateOnLine) {
  EXPECT_DOUBLE_EQ(rate_on_line(12e6, 60e6), 0.2);
  EXPECT_THROW(rate_on_line(1.0, 0.0), ContractViolation);
}

TEST(Premium, SummariseLosses) {
  std::vector<Money> losses(1000, 0.0);
  for (std::size_t i = 0; i < losses.size(); ++i) {
    losses[i] = static_cast<double>(i);  // 0..999
  }
  const auto stats = summarise_losses(losses);
  EXPECT_NEAR(stats.expected_loss, 499.5, 1e-9);
  EXPECT_GT(stats.tvar_99, 989.0);  // mean of the top ~1%
  EXPECT_NEAR(stats.pml_250, 0.996 * 999.0, 1e-9);  // type-7 99.6% quantile
  EXPECT_GT(stats.loss_stdev, 0.0);
  EXPECT_THROW(summarise_losses({}), ContractViolation);
}

TEST(Premium, MoreVolatilityCostsMore) {
  PricingTerms terms;
  LossStatistics low;
  low.expected_loss = 100.0;
  low.loss_stdev = 10.0;
  low.tvar_99 = 150.0;
  LossStatistics high = low;
  high.loss_stdev = 80.0;
  EXPECT_GT(technical_premium(high, terms), technical_premium(low, terms));
}

}  // namespace
}  // namespace riskan::finance
