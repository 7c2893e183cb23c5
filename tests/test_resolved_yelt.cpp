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

#include <iterator>
#include <limits>
#include <string>
#include <vector>

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

/// The per-table reference: ResolvedYelt::build compacted to hits, with
/// the CSR index by trial.
struct Compacted {
  std::vector<std::uint64_t> trial_offsets{0};
  std::vector<std::uint32_t> seqs;
  std::vector<std::uint32_t> rows;
};

Compacted compaction_of(const EventLossTable& elt, const YearEventLossTable& yelt) {
  const auto resolved = ResolvedYelt::build(elt, yelt);
  const auto offsets = yelt.offsets();
  Compacted out;
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      if (resolved.rows()[i] != ResolvedYelt::kNoLoss) {
        out.seqs.push_back(static_cast<std::uint32_t>(i - offsets[t]));
        out.rows.push_back(resolved.rows()[i]);
      }
    }
    out.trial_offsets.push_back(out.seqs.size());
  }
  return out;
}

void expect_equals_compaction(const CompactResolvedYelt& got, const EventLossTable& elt,
                              const YearEventLossTable& yelt, const std::string& what) {
  const auto want = compaction_of(elt, yelt);
  ASSERT_EQ(got.trials(), yelt.trials()) << what;
  ASSERT_EQ(got.hits(), want.seqs.size()) << what;
  for (TrialId t = 0; t <= yelt.trials(); ++t) {
    ASSERT_EQ(got.trial_offsets()[t], want.trial_offsets[t]) << what << " trial " << t;
  }
  for (std::uint64_t k = 0; k < got.hits(); ++k) {
    ASSERT_EQ(got.seqs()[k], want.seqs[k]) << what << " hit " << k;
    ASSERT_EQ(got.rows()[k], want.rows[k]) << what << " hit " << k;
  }
}

/// A book mixing dense and sparse tables: `short_dense` has a row_lookup()
/// far shorter than the YELT's largest event ids, `sparse` has none.
struct MixedBook {
  EventLossTable wide_dense;
  EventLossTable short_dense;
  EventLossTable sparse;
};

MixedBook mixed_book() {
  std::vector<EltRow> wide;
  for (EventId e = 1; e < 600; e += 4) {
    wide.push_back({e, 1e5 + e, 2e4, 1e6});
  }
  std::vector<EltRow> low;
  for (EventId e = 0; e < 40; e += 3) {
    low.push_back({e, 2e5 + e, 2e4, 1e6});
  }
  std::vector<EltRow> sparse;
  for (EventId k = 0; k < 30; ++k) {
    sparse.push_back({k * 20'011 % 600 + k * 1'000'003, 3e5 + k, 2e4, 1e6});
  }
  sparse.push_back({7, 3e5, 2e4, 1e6});
  return MixedBook{EventLossTable::from_rows(wide), EventLossTable::from_rows(low),
                   EventLossTable::from_rows(sparse)};
}

/// Leading, trailing and interior empty trials, hit-free trials, repeated
/// events and events at or past every table's lookup.
YearEventLossTable edge_yelt() {
  YearEventLossTable::Builder builder;
  builder.begin_trial();  // empty
  builder.begin_trial();
  builder.add(0, 1);
  builder.add(7, 2);
  builder.add(599, 3);
  builder.add(1'000'003, 4);  // only the sparse table's id range
  builder.begin_trial();
  builder.add(2, 5);  // in no table: a hit-free trial
  builder.begin_trial();
  builder.begin_trial();
  builder.add(39, 6);
  builder.add(40, 7);  // one past short_dense's lookup
  builder.add(39, 8);
  builder.begin_trial();
  builder.add(5'000'000, 9);  // past every lookup
  builder.begin_trial();
  builder.add(3, 10);
  builder.add(5, 11);
  builder.begin_trial();  // empty
  return builder.finish();
}

TEST(CompactResolvedYelt, FusedBuildEqualsPerTableCompaction) {
  const auto book = mixed_book();
  ASSERT_FALSE(book.wide_dense.row_lookup().empty());
  ASSERT_FALSE(book.short_dense.row_lookup().empty());
  ASSERT_TRUE(book.sparse.row_lookup().empty());
  // The same table twice, and every mix of dense and sparse.
  const EventLossTable* const elts[] = {&book.wide_dense, &book.sparse, &book.short_dense,
                                        &book.wide_dense};

  YeltGenConfig yg;
  yg.trials = 3'000;
  yg.seed = 17;
  const auto generated = generate_yelt(600, yg);
  const auto hand = edge_yelt();

  for (const auto* yelt : {&generated, &hand}) {
    // Inline, fixed grains whose chunk edges fall on empty and hit-free
    // trials, and the library's occurrence-weighted chunking.
    for (const std::size_t grain : {std::numeric_limits<std::size_t>::max(), std::size_t{1},
                                    std::size_t{2}, std::size_t{3}, std::size_t{0}}) {
      const auto built = CompactResolvedYelt::build(elts, *yelt, ParallelConfig{nullptr, grain});
      ASSERT_EQ(built.size(), std::size(elts));
      for (std::size_t j = 0; j < built.size(); ++j) {
        expect_equals_compaction(built[j], *elts[j], *yelt,
                                 "table " + std::to_string(j) + " grain " +
                                     std::to_string(grain) + " trials " +
                                     std::to_string(yelt->trials()));
      }
    }
  }
}

TEST(CompactResolvedYelt, OneTableAndOneTrialBlocks) {
  const auto book = mixed_book();
  const auto hand = edge_yelt();
  for (TrialId t = 0; t < hand.trials(); ++t) {
    YearEventLossTable::Builder builder;
    builder.begin_trial();
    for (std::uint64_t i = hand.offsets()[t]; i < hand.offsets()[t + 1]; ++i) {
      builder.add(hand.events()[i], 1);
    }
    const auto block = builder.finish();
    for (const auto* elt : {&book.wide_dense, &book.short_dense, &book.sparse}) {
      const EventLossTable* const one[] = {elt};
      expect_equals_compaction(CompactResolvedYelt::build(one, block).front(), *elt, block,
                               "one-trial block " + std::to_string(t));
    }
    const EventLossTable* const all[] = {&book.wide_dense, &book.short_dense, &book.sparse};
    const auto built = CompactResolvedYelt::build(all, block);
    for (std::size_t j = 0; j < built.size(); ++j) {
      expect_equals_compaction(built[j], *all[j], block, "one-trial block, fused");
    }
  }
}

TEST(CompactResolvedYelt, ReusedScratchGivesTheSameColumns) {
  // One scratch across blocks of different sizes and across a request
  // whose tables are not the ones its postings were built from.
  const auto book = mixed_book();
  const EventLossTable* const elts[] = {&book.wide_dense, &book.sparse, &book.short_dense};
  ResolveScratch scratch(elts);
  EXPECT_TRUE(scratch.postings().built_from(elts));
  YeltGenConfig yg;
  yg.trials = 700;
  const auto generated = generate_yelt(600, yg);
  const auto hand = edge_yelt();
  for (const auto* yelt : {&generated, &hand, &generated}) {
    const auto built = CompactResolvedYelt::build(elts, *yelt, {}, &scratch);
    for (std::size_t j = 0; j < built.size(); ++j) {
      expect_equals_compaction(built[j], *elts[j], *yelt, "reused scratch");
    }
  }
  const EventLossTable* const other[] = {&book.short_dense, &book.wide_dense};
  EXPECT_FALSE(scratch.postings().built_from(other));
  const auto built = CompactResolvedYelt::build(other, generated, {}, &scratch);
  for (std::size_t j = 0; j < built.size(); ++j) {
    expect_equals_compaction(built[j], *other[j], generated, "other tables");
  }
}

TEST(ResolverCache, FusedBuildResolvesOnlyTheMisses) {
  const auto book = mixed_book();
  const auto yelt = edge_yelt();
  ResolverCache cache;
  const auto cached = cache.get_or_build_compact(book.short_dense, yelt);
  EXPECT_EQ(cache.miss_count(), 1u);

  // The same table twice plus one cached: two misses (one build of the
  // repeated table), one hit on the cache and one on the repeat.
  const EventLossTable* const elts[] = {&book.wide_dense, &book.short_dense, &book.sparse,
                                        &book.wide_dense};
  const auto set = MultiResolution::build(elts, yelt, &cache);
  EXPECT_EQ(cache.miss_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 2u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(set.entry(1).compact.get(), cached.get());
  EXPECT_EQ(set.entry(0).compact.get(), set.entry(3).compact.get());
  for (std::size_t j = 0; j < set.size(); ++j) {
    expect_equals_compaction(*set.entry(j).compact, *elts[j], yelt,
                             "cache entry " + std::to_string(j));
  }

  // A second request resolves nothing.
  (void)MultiResolution::build(elts, yelt, &cache);
  EXPECT_EQ(cache.miss_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 6u);
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
    for (const Backend backend : kAllBackends) {
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
