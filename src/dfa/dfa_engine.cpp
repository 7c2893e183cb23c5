#include "dfa/dfa_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::dfa {

DfaEngine::DfaEngine(std::vector<std::unique_ptr<RiskSource>> sources, DfaConfig config)
    : sources_(std::move(sources)), config_(config) {
  RISKAN_REQUIRE(!sources_.empty(), "DFA needs at least one risk source");
  for (const auto& source : sources_) {
    RISKAN_REQUIRE(source != nullptr, "null risk source");
  }
}

DfaResult DfaEngine::run(const data::YearLossTable& cat_ylt) const {
  RISKAN_REQUIRE(!cat_ylt.empty(), "catastrophe YLT is empty");
  obs::Timer watch("dfa.run");

  const TrialId trials = cat_ylt.trials();
  const std::size_t dims = sources_.size() + 1;  // cat occupies dimension 0

  const GaussianCopula copula(
      CorrelationMatrix::exchangeable(dims, config_.correlation), config_.seed);

  DfaResult result;
  result.enterprise_ylt = data::YearLossTable(trials, "enterprise");
  result.source_names.reserve(sources_.size());
  for (const auto& source : sources_) {
    result.source_names.push_back(source->name());
  }
  if (config_.keep_source_ylts) {
    result.source_ylts.reserve(sources_.size());
    for (const auto& source : sources_) {
      result.source_ylts.emplace_back(trials, source->name());
    }
  }

  // The cat YLT's copula dimension re-orders which trial is "bad" jointly
  // with the other sources: we map dimension-0 uniforms to the cat-loss
  // quantile. Sorting once gives the quantile function.
  std::vector<Money> cat_sorted(cat_ylt.losses().begin(), cat_ylt.losses().end());
  std::sort(cat_sorted.begin(), cat_sorted.end());

  auto enterprise = result.enterprise_ylt.mutable_losses();
  parallel_for(
      0, trials,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> uniforms(dims);
        for (auto t = static_cast<TrialId>(lo); t < hi; ++t) {
          copula.sample(t, uniforms);
          Money total = quantile_sorted(cat_sorted, uniforms[0]);
          for (std::size_t s = 0; s < sources_.size(); ++s) {
            const Money loss = sources_[s]->loss(uniforms[s + 1], t);
            total += loss;
            if (config_.keep_source_ylts) {
              result.source_ylts[s][t] = loss;
            }
          }
          enterprise[t] = total;
        }
      });

  // Summaries and capital metrics.
  result.cat_summary = core::summarise(cat_ylt);
  result.enterprise_summary = core::summarise(result.enterprise_ylt);
  Money standalone_var_sum = result.cat_summary.var_99_6;
  if (config_.keep_source_ylts) {
    result.source_summaries.reserve(sources_.size());
    for (const auto& ylt : result.source_ylts) {
      auto summary = core::summarise(ylt);
      standalone_var_sum += summary.var_99_6;
      result.source_summaries.push_back(summary);
    }
    result.diversification_benefit =
        standalone_var_sum - result.enterprise_summary.var_99_6;
  }
  result.economic_capital =
      result.enterprise_summary.var_99_6 - result.enterprise_summary.mean_annual_loss;

  result.seconds = watch.stop();
  // Each trial logically touches one Money per dimension plus the combined
  // output — the unit of the paper's "terabytes" arithmetic.
  result.ylt_bytes_touched =
      static_cast<std::uint64_t>(trials) * (dims + 1) * sizeof(Money);
  return result;
}

}  // namespace riskan::dfa
