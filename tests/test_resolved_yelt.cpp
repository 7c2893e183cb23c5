// ResolvedYelt — the pre-joined event→row resolution — and its cache.
//
// Two layers of guarantee:
//   1. the resolution itself matches EventLossTable::find slot for slot;
//   2. the engine, which gathers through the resolver, produces YLTs
//      (portfolio, contract, OEP, reinstatement) bit-identical to the naive
//      oracle's per-occurrence find(), across backends, grain sizes, and
//      secondary-uncertainty settings — the resolver is a pure hoist, not
//      a semantic change.
#include <gtest/gtest.h>

#include "core/aggregate_engine.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "naive_oracle.hpp"

namespace riskan::data {
namespace {

EventLossTable small_elt() {
  return EventLossTable::from_rows({
      {2, 10.0, 1.0, 20.0},
      {5, 30.0, 2.0, 60.0},
      {9, 70.0, 5.0, 140.0},
  });
}

YearEventLossTable small_yelt() {
  YearEventLossTable::Builder builder;
  builder.begin_trial();
  builder.add(2, 1);
  builder.add(7, 2);  // not in the ELT
  builder.begin_trial();  // empty year
  builder.begin_trial();
  builder.add(9, 3);
  builder.add(5, 4);
  builder.add(2, 5);
  return builder.finish();
}

TEST(ResolvedYelt, MatchesEltFindPerOccurrence) {
  const auto elt = small_elt();
  const auto yelt = small_yelt();
  const auto resolved = ResolvedYelt::build(elt, yelt);

  ASSERT_EQ(resolved.size(), yelt.entries());
  const auto events = yelt.events();
  const auto rows = resolved.rows();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto expected = elt.find(events[i]);
    if (expected == EventLossTable::npos) {
      EXPECT_EQ(rows[i], ResolvedYelt::kNoLoss) << "occurrence " << i;
    } else {
      EXPECT_EQ(rows[i], static_cast<std::uint32_t>(expected)) << "occurrence " << i;
    }
  }
  EXPECT_EQ(resolved.hits(), 4u);  // event 7 misses
  EXPECT_EQ(resolved.byte_size(), yelt.entries() * sizeof(std::uint32_t));
}

TEST(ResolvedYelt, EmptyTablesResolveEmpty) {
  const auto elt = EventLossTable::from_rows({});
  const auto yelt = small_yelt();
  const auto resolved = ResolvedYelt::build(elt, yelt);
  EXPECT_EQ(resolved.hits(), 0u);
  for (const auto row : resolved.rows()) {
    EXPECT_EQ(row, ResolvedYelt::kNoLoss);
  }
}

TEST(ResolvedYelt, ParallelBuildMatchesSequentialBuild) {
  YeltGenConfig yg;
  yg.trials = 2'000;
  const auto yelt = generate_yelt(500, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 500;
  pg.elt_rows = 120;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto& elt = portfolio.contract(0).elt();

  const auto parallel = ResolvedYelt::build(elt, yelt, ParallelConfig{nullptr, 0});
  const auto tiny_grain = ResolvedYelt::build(elt, yelt, ParallelConfig{nullptr, 64});
  ASSERT_EQ(parallel.size(), tiny_grain.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel.rows()[i], tiny_grain.rows()[i]);
  }
  EXPECT_EQ(parallel.hits(), tiny_grain.hits());
}

TEST(ResolverCache, SecondLookupHitsAndSharesTheResolution) {
  const auto elt = small_elt();
  const auto yelt = small_yelt();
  ResolverCache cache;

  const auto first = cache.get_or_build_compact(elt, yelt);
  const auto second = cache.get_or_build_compact(elt, yelt);
  EXPECT_EQ(first.get(), second.get());  // same shared resolution
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.miss_count(), 1u);
  EXPECT_EQ(cache.hit_count(), 1u);
}

TEST(ResolverCache, DistinctTablesGetDistinctEntries) {
  const auto elt_a = small_elt();
  const auto elt_b = EventLossTable::from_rows({{2, 10.0, 1.0, 20.0}});
  const auto yelt = small_yelt();
  ResolverCache cache;

  const auto a = cache.get_or_build_compact(elt_a, yelt);
  const auto b = cache.get_or_build_compact(elt_b, yelt);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(a->hits(), 4u);
  EXPECT_EQ(b->hits(), 2u);  // only event 2 resolves
}

TEST(ResolverCache, EvictsFifoPastCapacity) {
  const auto yelt = small_yelt();
  ResolverCache cache;
  std::vector<EventLossTable> elts;
  elts.reserve(ResolverCache::kMaxEntries + 8);
  for (std::size_t i = 0; i < ResolverCache::kMaxEntries + 8; ++i) {
    elts.push_back(EventLossTable::from_rows(
        {{static_cast<EventId>(i + 1), 1.0, 0.0, 2.0}}));
    cache.get_or_build_compact(elts.back(), yelt);
  }
  EXPECT_EQ(cache.size(), ResolverCache::kMaxEntries);
}

}  // namespace
}  // namespace riskan::data

namespace riskan::core {
namespace {

struct EquivalenceWorkload {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

EquivalenceWorkload equivalence_workload() {
  EquivalenceWorkload w;
  finance::PortfolioGenConfig pg;
  pg.contracts = 6;
  pg.catalog_events = 800;
  pg.elt_rows = 150;
  pg.layers_per_contract = 3;  // resolution shared across layers
  pg.seed = 99;
  w.portfolio = finance::generate_portfolio(pg);

  data::YeltGenConfig yg;
  yg.trials = 1'500;
  yg.seed = 7;
  w.yelt = data::generate_yelt(800, yg);
  return w;
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
}

TEST(ResolverEquivalence, BitIdenticalAcrossBackendsGrainsAndSecondary) {
  const auto w = equivalence_workload();

  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.secondary_uncertainty = secondary;
    const auto naive = oracle::naive_oracle(w.portfolio, w.yelt, config);
    for (const Backend backend : kHostBackends) {
      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        if (backend == Backend::Sequential && grain != 0) {
          continue;  // grain only affects the threaded backend
        }
        config.backend = backend;
        config.trial_grain = grain;
        const auto resolved = run_aggregate_analysis(w.portfolio, w.yelt, config);

        expect_identical(naive, resolved,
                         std::string(to_string(backend)) +
                             (secondary ? "/secondary" : "/means") + "/grain=" +
                             std::to_string(grain));
        EXPECT_EQ(naive.elt_lookups, resolved.elt_lookups);
      }
    }
  }
}

TEST(ResolverEquivalence, DeviceSimMatchesNaiveSequential) {
  const auto w = equivalence_workload();

  EngineConfig config;
  const auto naive = oracle::naive_oracle(w.portfolio, w.yelt, config);

  config.backend = Backend::DeviceSim;
  config.device_elt_chunk_rows = 64;  // cap constant-memory residency per table
  const auto device = run_aggregate_analysis(w.portfolio, w.yelt, config);

  expect_identical(naive, device, "device-sim resolver vs naive oracle");
}

TEST(ResolverEquivalence, SharedCacheReusedAcrossRuns) {
  const auto w = equivalence_workload();
  data::ResolverCache cache;

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.resolver_cache = &cache;

  // One resolution per contract; layers share it without re-probing the
  // cache, so the first run is all misses and no hits.
  const auto first = run_aggregate_analysis(w.portfolio, w.yelt, config);
  EXPECT_EQ(cache.miss_count(), w.portfolio.size());
  EXPECT_EQ(cache.hit_count(), 0u);

  // The second run over the same tables resolves nothing.
  const auto second = run_aggregate_analysis(w.portfolio, w.yelt, config);
  EXPECT_EQ(cache.miss_count(), w.portfolio.size());
  EXPECT_EQ(cache.hit_count(), w.portfolio.size());
  expect_identical(first, second, "second run from cache");
}

}  // namespace
}  // namespace riskan::core
