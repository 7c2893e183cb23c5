#include "core/pricer.hpp"

#include "obs/obs.hpp"

namespace riskan::core {

RealTimePricer::RealTimePricer(const data::YearEventLossTable& yelt, EngineConfig config,
                               finance::PricingTerms pricing)
    : yelt_(yelt), config_(config), pricing_(pricing) {}

PricingQuote RealTimePricer::price(const finance::Contract& contract,
                                   const finance::Layer& layer) const {
  obs::Timer watch("pricer.quote");
  const auto losses = run_layer(contract, layer, yelt_, config_);
  PricingQuote quote;
  quote.seconds = watch.stop();
  quote.trials = yelt_.trials();
  quote.loss_stats = finance::summarise_losses(losses);
  quote.technical_premium = finance::technical_premium(quote.loss_stats, pricing_);
  quote.rate_on_line = finance::rate_on_line(quote.technical_premium, layer.terms.occ_limit);
  quote.pml_250 = quote.loss_stats.pml_250;
  return quote;
}

}  // namespace riskan::core
