// DFA engine — stage 3: combine the catastrophe YLT with the other risk
// sources into an enterprise view.
//
// "The challenge here comes from the combination of YLTs representing
// different risks which easily results in terabytes of data. From a YLT, a
// reinsurer can derive important portfolio risk metrics such as the
// Probable Maximum Loss and the Tail Value at Risk ... Furthermore, these
// metrics then flow into the final stage in the risk analysis pipeline,
// namely Enterprise Risk Management."
//
// The engine streams trials: per trial it draws the copula vector, asks
// each source for its loss, adds the catastrophe loss, and writes the
// combined YLT. Every step is a pure function of the trial (the copula and
// the stochastic sources draw per-trial Philox streams), so the trial loop
// runs on the pool in parallel chunks with results bit-identical to a
// one-thread run. Bytes-touched accounting supports the paper's terabyte
// arithmetic in bench_e7.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "data/ylt.hpp"
#include "dfa/copula.hpp"
#include "dfa/risk_sources.hpp"

namespace riskan::dfa {

struct DfaConfig {
  std::uint64_t seed = 31337;
  /// Off-diagonal correlation between all risk sources (and the cat YLT).
  double correlation = 0.25;
  /// Keep per-source YLTs in the result (contracts x trials memory).
  bool keep_source_ylts = true;
};

struct DfaResult {
  /// Enterprise-wide per-trial net loss: cat + all sources.
  data::YearLossTable enterprise_ylt;
  /// Per-source YLTs (index-aligned with `source_names`); empty when
  /// keep_source_ylts is off.
  std::vector<data::YearLossTable> source_ylts;
  std::vector<std::string> source_names;

  /// Risk summaries: per source, for the cat input, and enterprise-wide.
  std::vector<core::RiskSummary> source_summaries;
  core::RiskSummary cat_summary;
  core::RiskSummary enterprise_summary;

  /// Economic capital: enterprise VaR 99.6 (1-in-250) minus expected loss.
  Money economic_capital = 0.0;

  /// Diversification benefit: sum of standalone VaR99.6 minus combined.
  Money diversification_benefit = 0.0;

  double seconds = 0.0;
  /// Bytes of YLT data logically touched (the terabyte-claim accounting).
  std::uint64_t ylt_bytes_touched = 0;
};

class DfaEngine {
 public:
  /// Takes ownership of the sources. The catastrophe YLT occupies copula
  /// dimension 0; sources follow in order.
  DfaEngine(std::vector<std::unique_ptr<RiskSource>> sources, DfaConfig config = {});

  /// Runs over the catastrophe YLT's trials on ThreadPool::shared(). It
  /// blocks on that pool, so it must not be called from one of its tasks.
  DfaResult run(const data::YearLossTable& cat_ylt) const;

  std::size_t source_count() const noexcept { return sources_.size(); }

 private:
  std::vector<std::unique_ptr<RiskSource>> sources_;
  DfaConfig config_;
};

}  // namespace riskan::dfa
