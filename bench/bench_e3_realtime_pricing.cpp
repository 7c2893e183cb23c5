// E3 — real-time pricing.
//
// Paper claim: "A 1 million trial aggregate simulation on a typical
// contract only takes 25 seconds and can therefore support real-time
// pricing."
//
// We price one typical contract (single XL layer, 10k-row ELT, ~10
// occurrences per trial year) against a 1M-trial YELT and report the
// wall-clock, with and without secondary-uncertainty sampling, plus the
// trial-count scaling series that shows time is linear in trials (the
// property that makes the 25 s budget predictable). Each row shows the
// simulation time (PricingQuote::seconds: resolve + trial kernel) next to
// the full price() call, which adds the loss summary and premium formulas.
//
// Gate: every Threaded quote must equal the Sequential quote of the same
// layer bit for bit (loss statistics, premium, rate on line, PML), or the
// bench exits 1.
#include <iostream>

#include "bench/common.hpp"
#include "core/pricer.hpp"
#include "util/stopwatch.hpp"

using namespace riskan;

namespace {

bool same_quote(const core::PricingQuote& a, const core::PricingQuote& b) {
  return a.loss_stats.expected_loss == b.loss_stats.expected_loss &&
         a.loss_stats.loss_stdev == b.loss_stats.loss_stdev &&
         a.loss_stats.tvar_99 == b.loss_stats.tvar_99 &&
         a.loss_stats.pml_250 == b.loss_stats.pml_250 &&
         a.technical_premium == b.technical_premium && a.rate_on_line == b.rate_on_line &&
         a.pml_250 == b.pml_250 && a.trials == b.trials;
}

}  // namespace

int main() {
  print_banner(std::cout, "E3: real-time pricing (paper's '25 seconds for 1M trials')");

  const TrialId full_trials = bench::scaled_trials(1'000'000);

  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 100'000;
  pg.elt_rows = 10'000;
  pg.seed = 1212;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto& contract = portfolio.contract(0);
  const auto& layer = contract.layers()[0];

  ReportTable table({"trials", "secondary", "simulation", "price()", "trials/s", "premium",
                     "PML(250y)"});

  for (const TrialId trials :
       {full_trials / 10, full_trials / 4, full_trials}) {
    data::YeltGenConfig yg;
    yg.trials = trials;
    yg.mean_events_per_year = 10.0;
    yg.seed = 555;
    const auto yelt = data::generate_yelt(pg.catalog_events, yg);

    for (const bool secondary : {false, true}) {
      core::EngineConfig config;
      config.backend = core::Backend::Threaded;
      config.secondary_uncertainty = secondary;
      const core::RealTimePricer pricer(yelt, config);
      const Stopwatch watch;
      const auto quote = pricer.price(contract, layer);
      const double price_s = watch.seconds();

      config.backend = core::Backend::Sequential;
      const core::RealTimePricer sequential(yelt, config);
      if (!same_quote(quote, sequential.price(contract, layer))) {
        std::cerr << "QUOTE MISMATCH at " << trials << " trials, secondary "
                  << (secondary ? "on" : "off")
                  << " — the Threaded quote is not bit-identical to the Sequential one\n";
        return 1;
      }
      table.add_row({format_count(static_cast<double>(trials)),
                     secondary ? "on" : "off", format_seconds(quote.seconds),
                     format_seconds(price_s),
                     format_rate(static_cast<double>(trials) / quote.seconds),
                     format_count(quote.technical_premium),
                     format_count(quote.pml_250)});
    }
  }
  bench::emit("e3_pricing", table);
  std::cout << "\nevery Threaded quote equals the Sequential quote bit for bit\n";

  std::cout << "\n[E3 verdict] paper: 25 s for 1M trials on a 2012 GPU. The rows "
               "above show this host's 1M-trial simulation and price() wall-clock; "
               "time scales "
               "linearly in trials, so the real-time budget translates "
               "directly to a trials-per-second requirement ("
            << format_rate(1e6 / 25.0) << " to meet the paper's 25 s).\n";
  return 0;
}
