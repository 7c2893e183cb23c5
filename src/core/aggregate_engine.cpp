#include "core/aggregate_engine.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/exec.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "data/trial_source.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::core {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::Sequential: return "sequential";
    case Backend::Threaded: return "threaded";
  }
  return "unknown";
}

namespace {

/// Bound beyond which trial_grain is a bug, not a tuning choice.
constexpr std::size_t kMaxTrialGrain = std::size_t{1} << 30;

}  // namespace

void validate_engine_config(const EngineConfig& config) {
  obs::validate_obs_config(config.obs);
  adaptive::validate_adaptive_config(config.adaptive);
  if (config.adaptive.enabled() &&
      (config.adaptive.metrics & adaptive::kOccurrenceMetrics) != 0) {
    RISKAN_REQUIRE(config.compute_oep,
                   "adaptive occurrence metrics (occ_var/occ_tvar) need compute_oep");
  }
  RISKAN_REQUIRE(config.trial_grain <= kMaxTrialGrain,
                 "trial_grain is absurdly large (max 2^30 trials per chunk)");
}

data::ResolverCache& resolver_cache_for(const EngineConfig& config,
                                        const data::TrialSource& source,
                                        data::ResolverCache& local) {
  // Ephemeral blocks die with the pass, so caching their resolutions
  // anywhere durable — the caller's cache included — only parks dead keys
  // and evicts genuinely warm entries; the run-local cache (cleared per
  // block) wins unconditionally there.
  if (source.ephemeral_blocks()) {
    return local;
  }
  return config.resolver_cache != nullptr ? *config.resolver_cache
                                          : data::ResolverCache::shared();
}

void for_each_trial_block(data::TrialSource& source, const EngineConfig& config,
                          data::ResolverCache& run_local_cache,
                          const std::function<void(const data::TrialBlock&, TrialId)>& body) {
  const TrialId trials = source.trials();
  data::TrialBlock block;
  TrialId seen = 0;
  while (source.next(block)) {
    const TrialId block_trials = block.yelt->trials();
    RISKAN_ENSURE(block.trial_offset == seen && seen + block_trials <= trials,
                  "trial source delivered blocks out of order or past its trial count");
    body(block, config.trial_base + block.trial_offset);
    seen += block_trials;
    // Ephemeral blocks resolve through the run-local cache (see
    // resolver_cache_for); dropping those resolutions with the block keeps
    // memory bounded and pointer-keyed entries from outliving their table.
    if (source.ephemeral_blocks()) {
      run_local_cache.clear();
    }
  }
  RISKAN_ENSURE(seen == trials, "trial source delivered fewer trials than declared");
}

EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    const data::YearEventLossTable& yelt,
                                    const EngineConfig& config) {
  data::InMemorySource source(yelt);
  return run_aggregate_analysis(portfolio, source, config);
}

EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    data::TrialSource& source,
                                    const EngineConfig& config) {
  return run_portfolio_batch(portfolio, source, config);
}

std::vector<Money> run_layer(const finance::Contract& contract, const finance::Layer& layer,
                             const data::YearEventLossTable& yelt,
                             const EngineConfig& config) {
  validate_engine_config(config);
  const TrialId trials = yelt.trials();
  RISKAN_REQUIRE(trials > 0, "trial source must contain trials");
  RISKAN_REQUIRE(!config.adaptive.enabled(),
                 "run_layer prices every trial; adaptive stopping needs "
                 "run_aggregate_analysis");
  obs::RunObsScope obs_scope(config.obs);
  obs::Timer timer("engine.run_layer");

  // A one-slot plan over the caller's contract, resolved by the one-table
  // case of the resolver's build and not cached: a quoted contract's
  // compact columns (~16 MB at 1M trials) would pile up in any durable
  // cache across a quote stream. The caller reads only the losses, so the
  // slot has no reinstatement-premium column.
  const ParallelConfig resolve_cfg =
      pool_free(config.backend)
          ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
          : ParallelConfig{config.pool, config.trial_grain};
  const data::EventLossTable* const elt[] = {&contract.elt()};
  const auto compact =
      std::move(data::CompactResolvedYelt::build(elt, yelt, resolve_cfg).front());
  std::optional<SecondarySampler> sampler;
  if (config.secondary_uncertainty) {
    sampler.emplace(contract.elt());
  }

  std::vector<Money> losses(trials, 0.0);
  batch::Slot slot =
      batch::make_slot(contract, layer, compact, sampler ? &*sampler : nullptr);
  slot.portfolio_losses = losses;

  const auto plan = exec::ExecutionPlan::lower({&slot, 1}, yelt.offsets(), trials, config);
  exec::execute(plan, Philox4x32(config.seed), config);

  timer.stop();
  (void)obs_scope.finish();
  return losses;
}

}  // namespace riskan::core
