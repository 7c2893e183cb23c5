// Stage 3: correlation matrices, Gaussian copula (marginal preservation,
// dependence), risk-source marginals, and the DFA engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/aggregate_engine.hpp"
#include "dfa/copula.hpp"
#include "dfa/dfa_engine.hpp"
#include "dfa/risk_sources.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::dfa {
namespace {

TEST(CorrelationMatrix, IdentityByDefault) {
  const CorrelationMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(CorrelationMatrix, SetIsSymmetric) {
  CorrelationMatrix m(3);
  m.set(0, 2, 0.4);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.4);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 0.4);
  EXPECT_THROW(m.set(1, 1, 0.5), ContractViolation);
  EXPECT_THROW(m.set(0, 1, 1.0), ContractViolation);
  EXPECT_THROW((void)m.at(3, 0), ContractViolation);
}

TEST(CorrelationMatrix, ExchangeableFillsOffDiagonal) {
  const auto m = CorrelationMatrix::exchangeable(4, 0.3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), i == j ? 1.0 : 0.3);
    }
  }
}

TEST(Copula, RejectsNonPositiveDefinite) {
  // Exchangeable rho < -1/(n-1) is not PSD: for n=3, rho=-0.6 fails.
  const auto bad = CorrelationMatrix::exchangeable(3, -0.6);
  EXPECT_THROW(GaussianCopula(bad, 1), ContractViolation);
  const auto good = CorrelationMatrix::exchangeable(3, 0.5);
  EXPECT_NO_THROW(GaussianCopula(good, 1));
}

TEST(Copula, MarginalsAreUniform) {
  const GaussianCopula copula(CorrelationMatrix::exchangeable(3, 0.5), 42);
  OnlineStats dims[3];
  std::vector<double> u(3);
  const TrialId n = 50'000;
  for (TrialId t = 0; t < n; ++t) {
    copula.sample(t, u);
    for (int d = 0; d < 3; ++d) {
      ASSERT_GT(u[d], 0.0);
      ASSERT_LT(u[d], 1.0);
      dims[d].add(u[d]);
    }
  }
  for (const auto& stats : dims) {
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
  }
}

TEST(Copula, PositiveRhoInducesPositiveRankCorrelation) {
  const GaussianCopula correlated(CorrelationMatrix::exchangeable(2, 0.7), 7);
  const GaussianCopula independent(CorrelationMatrix::exchangeable(2, 0.0), 7);

  auto sample_corr = [](const GaussianCopula& copula) {
    std::vector<double> u(2);
    double sum_xy = 0.0;
    double sum_x = 0.0;
    double sum_y = 0.0;
    double sum_x2 = 0.0;
    double sum_y2 = 0.0;
    const int n = 20'000;
    for (TrialId t = 0; t < n; ++t) {
      copula.sample(t, u);
      sum_xy += u[0] * u[1];
      sum_x += u[0];
      sum_y += u[1];
      sum_x2 += u[0] * u[0];
      sum_y2 += u[1] * u[1];
    }
    const double cov = sum_xy / n - (sum_x / n) * (sum_y / n);
    const double vx = sum_x2 / n - (sum_x / n) * (sum_x / n);
    const double vy = sum_y2 / n - (sum_y / n) * (sum_y / n);
    return cov / std::sqrt(vx * vy);
  };

  EXPECT_GT(sample_corr(correlated), 0.55);
  EXPECT_NEAR(sample_corr(independent), 0.0, 0.03);
}

TEST(Copula, DeterministicPerTrial) {
  const GaussianCopula copula(CorrelationMatrix::exchangeable(4, 0.2), 5);
  std::vector<double> a(4);
  std::vector<double> b(4);
  copula.sample(123, a);
  copula.sample(123, b);
  for (int d = 0; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(a[d], b[d]);
  }
  copula.sample(124, b);
  int same = 0;
  for (int d = 0; d < 4; ++d) {
    if (a[d] == b[d]) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Copula, WrongSpanSizeRejected) {
  const GaussianCopula copula(CorrelationMatrix::exchangeable(3, 0.1), 5);
  std::vector<double> wrong(2);
  EXPECT_THROW(copula.sample(0, wrong), ContractViolation);
}

// ---------------------------------------------------------------------------
// Risk sources
// ---------------------------------------------------------------------------

TEST(RiskSources, LossesAreMonotoneInBadness) {
  const auto sources = standard_risk_sources(11);
  for (const auto& source : sources) {
    double prev = -1e18;
    for (double u = 0.01; u < 1.0; u += 0.01) {
      const double loss = source->loss(u, /*trial=*/5);
      ASSERT_GE(loss, prev - 1e-9) << source->name() << " at u=" << u;
      prev = loss;
    }
  }
}

TEST(RiskSources, InvestmentGainsInGoodYears) {
  const InvestmentRisk investment(1e9, 0.05, 0.10);
  EXPECT_LT(investment.loss(0.1, 0), 0.0);  // low badness = gain
  EXPECT_GT(investment.loss(0.99, 0), 0.0);
}

TEST(RiskSources, CounterpartyDefaultsOnlyInTail) {
  const CounterpartyRisk cp(1e8, 0.02, 0.5);
  EXPECT_DOUBLE_EQ(cp.loss(0.5, 0), 0.0);
  EXPECT_DOUBLE_EQ(cp.loss(0.97, 0), 0.0);
  EXPECT_GT(cp.loss(0.99, 0), 0.0);
  EXPECT_LE(cp.loss(0.999999, 0), 1e8 * 0.5 + 1.0);
}

TEST(RiskSources, OperationalCountDrivesLoss) {
  const OperationalRisk op(2.0, std::log(1e6), 1.0, 3);
  EXPECT_DOUBLE_EQ(op.loss(0.01, 0), 0.0);  // count quantile 0
  EXPECT_GT(op.loss(0.999, 0), 0.0);
}

TEST(RiskSources, ReserveDevelopmentCentredOnZero) {
  const ReserveRisk reserve(1e9, 0.05);
  // Median development factor is below e^0 due to the -sigma^2/2 drift;
  // loss at u=0.5 is slightly negative, far from +/- reserves.
  const double mid = reserve.loss(0.5, 0);
  EXPECT_LT(std::abs(mid), 1e8);
  EXPECT_GT(reserve.loss(0.99, 0), 0.0);
  EXPECT_LT(reserve.loss(0.01, 0), 0.0);
}

TEST(RiskSources, ConstructorContracts) {
  EXPECT_THROW(InvestmentRisk(-1.0, 0.05, 0.1), ContractViolation);
  EXPECT_THROW(InterestRateRisk(1e9, 0.0, 0.01), ContractViolation);
  EXPECT_THROW(CounterpartyRisk(1e8, 1.5, 0.5), ContractViolation);
  EXPECT_THROW(ReserveRisk(0.0, 0.05), ContractViolation);
}

// ---------------------------------------------------------------------------
// DFA engine
// ---------------------------------------------------------------------------

class DfaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    finance::PortfolioGenConfig pg;
    pg.contracts = 8;
    pg.catalog_events = 300;
    pg.elt_rows = 60;
    const auto portfolio = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = 3'000;
    const auto yelt = data::generate_yelt(300, yg);
    core::EngineConfig config;
    config.backend = core::Backend::Sequential;
    cat_ylt_ = core::run_aggregate_analysis(portfolio, yelt, config).portfolio_ylt;
  }

  data::YearLossTable cat_ylt_;
};

TEST_F(DfaFixture, RunProducesCoherentEnterpriseView) {
  DfaEngine engine(standard_risk_sources(21), DfaConfig{});
  const auto result = engine.run(cat_ylt_);

  EXPECT_EQ(result.enterprise_ylt.trials(), cat_ylt_.trials());
  ASSERT_EQ(result.source_ylts.size(), 6u);
  ASSERT_EQ(result.source_names.size(), 6u);
  ASSERT_EQ(result.source_summaries.size(), 6u);

  // Enterprise tail must dominate the cat tail alone is NOT guaranteed
  // (investment gains offset), but economic capital must be positive and
  // the summary coherent.
  EXPECT_GT(result.economic_capital, 0.0);
  EXPECT_GE(result.enterprise_summary.tvar_99, result.enterprise_summary.var_99);
  EXPECT_GT(result.ylt_bytes_touched, 0u);
}

TEST_F(DfaFixture, DeterministicInSeed) {
  DfaConfig config;
  config.seed = 99;
  DfaEngine a(standard_risk_sources(5), config);
  DfaEngine b(standard_risk_sources(5), config);
  const auto ra = a.run(cat_ylt_);
  const auto rb = b.run(cat_ylt_);
  for (TrialId t = 0; t < cat_ylt_.trials(); ++t) {
    ASSERT_EQ(ra.enterprise_ylt[t], rb.enterprise_ylt[t]);
  }
}

TEST_F(DfaFixture, EnterpriseEqualsSumOfParts) {
  DfaConfig config;
  DfaEngine engine(standard_risk_sources(7), config);
  const auto result = engine.run(cat_ylt_);

  // enterprise[t] = cat_quantile(u0) + sum of source losses. We cannot
  // reconstruct cat_quantile here, but enterprise - sum(sources) must be a
  // rearrangement of the cat YLT: same sorted values.
  std::vector<double> residual(cat_ylt_.trials());
  for (TrialId t = 0; t < cat_ylt_.trials(); ++t) {
    double sources_sum = 0.0;
    for (const auto& ylt : result.source_ylts) {
      sources_sum += ylt[t];
    }
    residual[t] = result.enterprise_ylt[t] - sources_sum;
  }
  std::sort(residual.begin(), residual.end());
  std::vector<double> cat_sorted(cat_ylt_.losses().begin(), cat_ylt_.losses().end());
  std::sort(cat_sorted.begin(), cat_sorted.end());

  // The residual is the cat quantile function evaluated at the copula's
  // dimension-0 uniforms: same distribution as the cat YLT, re-ordered.
  // Compare distributional statistics rather than order statistics.
  OnlineStats res_stats;
  OnlineStats cat_stats;
  for (std::size_t i = 0; i < residual.size(); ++i) {
    res_stats.add(residual[i]);
    cat_stats.add(cat_sorted[i]);
  }
  EXPECT_GE(res_stats.min(), cat_stats.min() - 1e-6);
  EXPECT_LE(res_stats.max(), cat_stats.max() + 1e-6);
  EXPECT_NEAR(res_stats.mean() / (cat_stats.mean() + 1e-12), 1.0, 0.10);
}

TEST_F(DfaFixture, PositiveCorrelationFattensTheTail) {
  DfaConfig independent;
  independent.correlation = 0.0;
  DfaConfig correlated;
  correlated.correlation = 0.6;
  DfaEngine a(standard_risk_sources(9), independent);
  DfaEngine b(standard_risk_sources(9), correlated);
  const auto ra = a.run(cat_ylt_);
  const auto rb = b.run(cat_ylt_);
  EXPECT_GT(rb.enterprise_summary.var_99_6, ra.enterprise_summary.var_99_6);
  // Diversification benefit shrinks as correlation rises.
  EXPECT_LT(rb.diversification_benefit, ra.diversification_benefit);
}

TEST_F(DfaFixture, KeepSourceYltsOffShrinksResult) {
  DfaConfig config;
  config.keep_source_ylts = false;
  DfaEngine engine(standard_risk_sources(3), config);
  const auto result = engine.run(cat_ylt_);
  EXPECT_TRUE(result.source_ylts.empty());
  EXPECT_TRUE(result.source_summaries.empty());
  EXPECT_EQ(result.enterprise_ylt.trials(), cat_ylt_.trials());
}

TEST_F(DfaFixture, PooledRunIsBitIdenticalToOneThread) {
  // The trial loop is pure per trial, so chunking it across the shared pool
  // must not move a bit of any output relative to a plain one-thread loop
  // built from the same public pieces the engine combines.
  const DfaConfig defaults;
  const auto sources = standard_risk_sources(11);
  const GaussianCopula copula(
      CorrelationMatrix::exchangeable(sources.size() + 1, defaults.correlation),
      defaults.seed);
  std::vector<Money> cat_sorted(cat_ylt_.losses().begin(), cat_ylt_.losses().end());
  std::sort(cat_sorted.begin(), cat_sorted.end());

  const TrialId trials = cat_ylt_.trials();
  data::YearLossTable enterprise(trials, "enterprise");
  std::vector<std::vector<Money>> source_losses(sources.size(), std::vector<Money>(trials));
  std::vector<double> u(sources.size() + 1);
  for (TrialId t = 0; t < trials; ++t) {
    copula.sample(t, u);
    Money total = quantile_sorted(cat_sorted, u[0]);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      source_losses[s][t] = sources[s]->loss(u[s + 1], t);
      total += source_losses[s][t];
    }
    enterprise[t] = total;
  }
  const auto enterprise_summary = core::summarise(enterprise);

  for (const bool keep : {true, false}) {
    DfaConfig config;
    config.keep_source_ylts = keep;
    const auto pooled = DfaEngine(standard_risk_sources(11), config).run(cat_ylt_);

    ASSERT_EQ(pooled.enterprise_ylt.trials(), trials);
    for (TrialId t = 0; t < trials; ++t) {
      ASSERT_EQ(pooled.enterprise_ylt[t], enterprise[t]) << "trial " << t;
    }
    ASSERT_EQ(pooled.source_ylts.size(), keep ? sources.size() : 0);
    for (std::size_t s = 0; s < pooled.source_ylts.size(); ++s) {
      for (TrialId t = 0; t < trials; ++t) {
        ASSERT_EQ(pooled.source_ylts[s][t], source_losses[s][t])
            << "source " << s << " trial " << t;
      }
    }
    EXPECT_EQ(pooled.enterprise_summary.var_99_6, enterprise_summary.var_99_6);
    EXPECT_EQ(pooled.enterprise_summary.tvar_99, enterprise_summary.tvar_99);
    EXPECT_EQ(pooled.enterprise_summary.mean_annual_loss, enterprise_summary.mean_annual_loss);
    EXPECT_EQ(pooled.economic_capital,
              enterprise_summary.var_99_6 - enterprise_summary.mean_annual_loss);
  }
}

TEST(DfaEngine, RejectsBadInputs) {
  EXPECT_THROW(DfaEngine({}, DfaConfig{}), ContractViolation);
  DfaEngine engine(standard_risk_sources(1), DfaConfig{});
  const data::YearLossTable empty;
  EXPECT_THROW((void)engine.run(empty), ContractViolation);
}

}  // namespace
}  // namespace riskan::dfa
