// Naive test oracle for stage 2 — the paper's aggregate analysis written
// as the plain loop nest, sharing nothing with the engine's lowering,
// resolver, plan, executors or kernel.
//
// Per contract, layer, trial and occurrence: look the event up with
// EventLossTable::find, draw the ground-up loss from the occurrence's own
// stream (occurrence_stream + SecondarySampler::sample) or take the ELT
// mean, apply the occurrence terms, sum the year, apply the annual terms,
// share and reinstatement premium, and accumulate. The OEP sample is the
// per-trial max over each occurrence's shared loss summed across layers.
//
// The loop order fixes each output cell's addition order: contracts, then
// layers, in portfolio order. That is the order the engine documents, so
// the two agree bit for bit, and a test comparing them checks the engine
// against an implementation it cannot share a bug with.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"

namespace riskan::oracle {

/// Runs the naive loop nest over `yelt` with the sampling-relevant fields
/// of `config` (seed, secondary_uncertainty, trial_base, compute_oep,
/// keep_contract_ylts). Scheduling fields are ignored: there is none.
inline core::EngineResult naive_oracle(const finance::Portfolio& portfolio,
                                       const data::YearEventLossTable& yelt,
                                       const core::EngineConfig& config) {
  const TrialId trials = yelt.trials();
  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  const Philox4x32 philox(config.seed);

  core::EngineResult out;
  out.portfolio_ylt = data::YearLossTable(trials, "portfolio");
  out.reinstatement_premium = data::YearLossTable(trials, "reinstatement-premium");
  std::vector<Money> occurrence_losses(yelt.entries(), 0.0);

  for (const auto& contract : portfolio.contracts()) {
    const data::EventLossTable& elt = contract.elt();
    const core::SecondarySampler sampler(elt);
    data::YearLossTable contract_ylt(trials, "contract-" + std::to_string(contract.id()));
    for (const auto& layer : contract.layers()) {
      const finance::LayerTerms& terms = layer.terms;
      for (TrialId t = 0; t < trials; ++t) {
        Money annual = 0.0;
        for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
          const std::size_t row = elt.find(events[i]);
          if (row == data::EventLossTable::npos) {
            continue;
          }
          ++out.elt_lookups;
          Money ground_up = elt.mean_loss()[row];
          if (config.secondary_uncertainty) {
            const auto seq = static_cast<std::uint32_t>(i - offsets[t]);
            auto stream = core::occurrence_stream(philox, contract.id(), layer.id,
                                                  config.trial_base + t, seq);
            ground_up = sampler.sample(row, stream);
          }
          const Money occ = finance::apply_occurrence(terms, ground_up);
          annual += occ;
          if (occ > 0.0) {
            occurrence_losses[i] += occ * terms.share;
          }
        }
        const Money consumed = finance::apply_aggregate(terms, annual);
        const Money net = consumed * terms.share;
        if (net > 0.0) {
          contract_ylt.mutable_losses()[t] += net;
          out.portfolio_ylt.mutable_losses()[t] += net;
          out.reinstatement_premium.mutable_losses()[t] += layer.reinstatements.premium_due(
              consumed, terms.occ_limit, layer.upfront_premium);
        }
      }
      out.occurrences_processed += yelt.entries();
    }
    if (config.keep_contract_ylts) {
      out.contract_ylts.push_back(std::move(contract_ylt));
    }
  }

  if (config.compute_oep) {
    out.portfolio_occurrence_ylt = data::YearLossTable(trials, "portfolio-oep");
    for (TrialId t = 0; t < trials; ++t) {
      Money worst = 0.0;
      for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
        worst = std::max(worst, occurrence_losses[i]);
      }
      out.portfolio_occurrence_ylt.mutable_losses()[t] = worst;
    }
  }
  return out;
}

}  // namespace riskan::oracle
