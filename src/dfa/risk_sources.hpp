// DFA risk sources — the non-catastrophe risks stage 3 integrates.
//
// "The aggregate YLTs of catastrophe risks are integrated with investment,
// reserving, interest rate, market cycle, counter-party, and operational
// risks in the simulation."
//
// Each source maps a copula uniform to an annual loss (negative = gain),
// producing one more YLT to combine. Marginal models are the standard
// textbook choices (Blum & Dacorogna [6]): lognormal asset returns, a
// Vasicek-style rate shock through duration, AR-flavoured market cycle on
// the premium margin, Bernoulli-LGD counterparty default, Poisson-lognormal
// operational losses, lognormal reserve development. Sources that need more
// randomness than their copula uniform (e.g. operational severity) derive
// it from a counter-based stream keyed by (source, trial), preserving
// bit-determinism.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/prng.hpp"
#include "util/types.hpp"

namespace riskan::dfa {

/// Interface: annual loss of one risk source given its copula uniform.
class RiskSource {
 public:
  virtual ~RiskSource() = default;

  /// Loss for `trial` given copula uniform `u` in (0,1). Monotone
  /// non-decreasing in u (u is the "badness" quantile), a property the
  /// tests check — it is what makes copula correlation meaningful.
  /// DfaEngine::run calls it from several threads at once for different
  /// trials, so it must be thread-safe and depend only on (u, trial): no
  /// mutable or cached state.
  virtual Money loss(double u, TrialId trial) const = 0;

  virtual const std::string& name() const = 0;
};

/// Investment result on an asset portfolio: loss = -assets * (r - r_target)
/// where r is lognormal-ish via the normal quantile of u.
class InvestmentRisk final : public RiskSource {
 public:
  InvestmentRisk(Money assets, double mean_return, double volatility);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  Money assets_;
  double mean_return_;
  double volatility_;
  std::string name_ = "investment";
};

/// Interest-rate risk: parallel shock dr ~ N(0, sigma_r) applied to a bond
/// portfolio through (modified) duration: loss = assets * duration * dr.
class InterestRateRisk final : public RiskSource {
 public:
  InterestRateRisk(Money bond_assets, double duration, double rate_volatility);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  Money bond_assets_;
  double duration_;
  double rate_volatility_;
  std::string name_ = "interest-rate";
};

/// Market-cycle (pricing adequacy) risk: soft markets compress margins.
/// loss = premium_volume * (margin_sigma * z - mean_margin_drift).
class MarketCycleRisk final : public RiskSource {
 public:
  MarketCycleRisk(Money premium_volume, double margin_sigma);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  Money premium_volume_;
  double margin_sigma_;
  std::string name_ = "market-cycle";
};

/// Counterparty (retro/reinsurer default): recoverable * LGD when
/// u falls in the default tail.
class CounterpartyRisk final : public RiskSource {
 public:
  CounterpartyRisk(Money recoverable, double default_probability, double loss_given_default);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  Money recoverable_;
  double default_probability_;
  double lgd_;
  std::string name_ = "counterparty";
};

/// Operational risk: count ~ Poisson(lambda) driven by u, severities
/// lognormal from a per-trial counter-based stream.
class OperationalRisk final : public RiskSource {
 public:
  OperationalRisk(double lambda, double severity_mu, double severity_sigma,
                  std::uint64_t seed);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  double lambda_;
  double severity_mu_;
  double severity_sigma_;
  Philox4x32 philox_;
  std::string name_ = "operational";
};

/// Reserve development: booked reserves develop by a lognormal factor;
/// loss = reserves * (factor - 1).
class ReserveRisk final : public RiskSource {
 public:
  ReserveRisk(Money reserves, double development_sigma);
  Money loss(double u, TrialId trial) const override;
  const std::string& name() const override { return name_; }

 private:
  Money reserves_;
  double development_sigma_;
  std::string name_ = "reserve";
};

/// The standard six-source set used by the examples/benches, sized to a
/// mid-size reinsurer (assets 2B, premium 800M, reserves 1.2B).
std::vector<std::unique_ptr<RiskSource>> standard_risk_sources(std::uint64_t seed);

}  // namespace riskan::dfa
