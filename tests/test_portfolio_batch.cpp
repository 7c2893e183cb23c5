// Portfolio-batched execution — one YELT pass serving every contract.
//
// The engine's one lowering is a loop-nest inversion of the paper's
// per-contract algorithm: same per-occurrence terms, same accumulation
// order per output cell. So every result (portfolio AEP, per-contract
// YLTs, OEP, reinstatement premium, lookup telemetry) must be bit-identical
// to the naive per-contract oracle (naive_oracle.hpp) across backends,
// grain sizes, secondary-uncertainty and OEP settings.
#include <gtest/gtest.h>

#include <limits>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "kernel_modes.hpp"
#include "naive_oracle.hpp"

namespace riskan::core {
namespace {

using oracle::naive_oracle;
using test_support::engine_rows;
using test_support::EngineRow;
using test_support::KernelScope;

finance::Portfolio book(std::size_t contracts, int layers, std::uint64_t seed = 99,
                        EventId catalog = 800, std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable lens(TrialId trials, EventId catalog = 800,
                              std::uint64_t seed = 7) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  return data::generate_yelt(catalog, yg);
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials()) << what;
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << what << " AEP trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << what << " reinstatement trial " << t;
  }
  ASSERT_EQ(a.portfolio_occurrence_ylt.trials(), b.portfolio_occurrence_ylt.trials())
      << what;
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << what << " OEP trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size()) << what;
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << what << " contract " << c << " trial " << t;
    }
  }
}

TEST(PortfolioBatch, BitIdenticalAcrossBackendsGrainsAndSecondary) {
  const auto portfolio = book(/*contracts=*/6, /*layers=*/3);
  const auto yelt = lens(1'500);

  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      config.compute_oep = oep;
      const auto oracle = naive_oracle(portfolio, yelt, config);
      for (const EngineRow& row : engine_rows()) {
        const KernelScope scope(row.mode);
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
          if (row.backend != Backend::Threaded && grain != 0) {
            continue;  // grain only affects the chunk-partitioned backend
          }
          config.backend = row.backend;
          config.trial_grain = grain;
          const auto result = run_aggregate_analysis(portfolio, yelt, config);
          expect_identical(oracle, result,
                           test_support::to_string(row) +
                               (secondary ? "/secondary" : "/means") +
                               (oep ? "/oep" : "/no-oep") + "/grain=" +
                               std::to_string(grain));
          EXPECT_EQ(oracle.elt_lookups, result.elt_lookups);
          EXPECT_EQ(oracle.occurrences_processed, result.occurrences_processed);
        }
      }
    }
  }
}

TEST(PortfolioBatch, BothEntryPointsMatchPerContractOnEveryBackend) {
  // The batched plan serves every contract from one pass: through the
  // engine and through the runner, on either backend, it agrees to the bit
  // with the naive per-contract oracle, lookup telemetry included.
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(800);

  for (const Backend backend : kAllBackends) {
    EngineConfig config;
    config.backend = backend;
    const auto per_contract = naive_oracle(portfolio, yelt, config);
    const auto via_engine = run_aggregate_analysis(portfolio, yelt, config);
    const auto via_runner = run_portfolio_batch(portfolio, yelt, config);
    const std::string name = to_string(backend);
    expect_identical(per_contract, via_engine, name + " via engine");
    expect_identical(per_contract, via_runner, name + " via runner");
    EXPECT_EQ(via_engine.elt_lookups, per_contract.elt_lookups) << name;
    EXPECT_EQ(via_runner.elt_lookups, per_contract.elt_lookups) << name;
  }
}

TEST(PortfolioBatch, ThreadedTrialGrainSweepIsBitIdentical) {
  // The trial partition is pure scheduling: 1/32/128/512-trial chunks (and
  // the inline Sequential reference) agree to the bit on the batched plan.
  const auto portfolio = book(/*contracts=*/5, /*layers=*/2);
  const auto yelt = lens(1'100);

  EngineConfig config;
  config.backend = Backend::Sequential;
  const auto reference = run_portfolio_batch(portfolio, yelt, config);

  config.backend = Backend::Threaded;
  for (const std::size_t grain :
       {std::size_t{1}, std::size_t{32}, std::size_t{128}, std::size_t{512}}) {
    config.trial_grain = grain;
    const auto threaded = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(reference, threaded, "trial grain " + std::to_string(grain));
  }
}

TEST(PortfolioBatch, DegenerateSingleContractBatch) {
  const auto portfolio = book(/*contracts=*/1, /*layers=*/2);
  const auto yelt = lens(1'000);

  const auto per_contract = naive_oracle(portfolio, yelt, EngineConfig{});
  for (const EngineRow& row : engine_rows()) {
    const KernelScope scope(row.mode);
    EngineConfig config;
    config.backend = row.backend;
    const auto batched = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(per_contract, batched, "1-contract/" + test_support::to_string(row));
  }
}

TEST(PortfolioBatch, DisjointEltEventSets) {
  // Contracts whose ELTs partition the catalogue: no event is shared, and
  // one contract's ELT misses the YELT entirely (zero hits end to end).
  const EventId catalog = 600;
  std::vector<data::EltRow> lo_rows, hi_rows, outside_rows;
  for (EventId e = 0; e < 200; ++e) {
    lo_rows.push_back({e, 1e6 + e, 2e5, 4e6});
  }
  for (EventId e = 300; e < 500; ++e) {
    hi_rows.push_back({e, 2e6 + e, 3e5, 8e6});
  }
  for (EventId e = catalog + 50; e < catalog + 80; ++e) {
    outside_rows.push_back({e, 5e6, 1e6, 9e6});  // never occurs in the YELT
  }

  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  finance::Portfolio portfolio;
  portfolio.add(finance::Contract(1, data::EventLossTable::from_rows(lo_rows), {layer}));
  portfolio.add(finance::Contract(2, data::EventLossTable::from_rows(hi_rows), {layer}));
  portfolio.add(
      finance::Contract(3, data::EventLossTable::from_rows(outside_rows), {layer}));

  const auto yelt = lens(1'200, catalog);

  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.backend = Backend::Threaded;
    config.secondary_uncertainty = secondary;
    const auto per_contract = naive_oracle(portfolio, yelt, config);
    const auto batched = run_portfolio_batch(portfolio, yelt, config);
    expect_identical(per_contract, batched,
                     secondary ? "disjoint/secondary" : "disjoint/means");
    // The out-of-catalogue contract contributes nothing on either path.
    for (TrialId t = 0; t < yelt.trials(); ++t) {
      ASSERT_EQ(batched.contract_ylts[2][t], 0.0);
    }
  }
}

TEST(PortfolioBatch, RejectionHeavySecondaryBitIdenticalAcrossBackends) {
  // A book whose ELT rows have CV >= 2 pushes both beta shape parameters
  // below 1: the batched sampler's first-attempt fast path rejects often,
  // so this matrix runs the scalar rejection-tail fallback hard. Degenerate
  // and pinned rows ride along to mix zero-draw lanes into the same
  // batches. Hit counts around the vector width keep lane tails in play.
  const EventId catalog = 90;
  std::vector<data::EltRow> heavy_rows;
  for (EventId e = 0; e < catalog; ++e) {
    const Money exposure = 4e6;
    if (e % 11 == 0) {
      heavy_rows.push_back({e, 0.0, 1e5, exposure});  // degenerate: zero mean
    } else if (e % 11 == 1) {
      heavy_rows.push_back({e, exposure, 1e5, exposure});  // pinned at limit
    } else {
      // mean_ratio 0.025–0.1 with sigma = 2–2.5x mean: alpha < 1 rows.
      const Money mean = 1e5 + 3e4 * static_cast<Money>(e % 10);
      heavy_rows.push_back({e, mean, 2.2 * mean, exposure});
    }
  }
  finance::Layer layer;
  layer.id = 1;
  layer.terms = finance::LayerTerms::typical();
  layer.terms.occ_retention = 5e4;
  layer.terms.occ_limit = 3e6;
  finance::Portfolio portfolio;
  portfolio.add(
      finance::Contract(1, data::EventLossTable::from_rows(heavy_rows), {layer}));
  portfolio.add(finance::Contract(
      2,
      data::EventLossTable::from_rows(
          std::vector<data::EltRow>(heavy_rows.begin(), heavy_rows.begin() + 45)),
      {layer}));

  const auto yelt = lens(700, catalog, /*seed=*/19);

  EngineConfig config;
  config.secondary_uncertainty = true;
  const auto reference = naive_oracle(portfolio, yelt, config);

  for (const EngineRow& row : engine_rows()) {
    const KernelScope scope(row.mode);
    config.backend = row.backend;
    const auto result = run_aggregate_analysis(portfolio, yelt, config);
    expect_identical(reference, result, "rejection-heavy/" + test_support::to_string(row));
  }
}

TEST(PortfolioBatch, TrialBaseAndLeanOutputsMatch) {
  const auto portfolio = book(/*contracts=*/3, /*layers=*/2);
  const auto yelt = lens(700);

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.trial_base = 12'345;  // MapReduce split regime
  config.compute_oep = false;
  config.keep_contract_ylts = false;

  const auto per_contract = naive_oracle(portfolio, yelt, config);
  const auto batched = run_portfolio_batch(portfolio, yelt, config);

  ASSERT_TRUE(batched.contract_ylts.empty());
  ASSERT_EQ(batched.portfolio_occurrence_ylt.trials(), 0);
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    ASSERT_EQ(per_contract.portfolio_ylt[t], batched.portfolio_ylt[t]) << t;
    ASSERT_EQ(per_contract.reinstatement_premium[t], batched.reinstatement_premium[t])
        << t;
  }
}

TEST(PortfolioBatchRunner, GroupsBooksByYeltAndMatchesIndividualRuns) {
  const auto book_a = book(/*contracts=*/3, /*layers=*/2, /*seed=*/11);
  const auto book_b = book(/*contracts=*/5, /*layers=*/1, /*seed=*/22);
  const auto shared_lens = lens(900);
  const auto other_lens = lens(900, 800, /*seed=*/31);

  EngineConfig config;
  config.backend = Backend::Threaded;

  PortfolioBatchRunner runner(config);
  EXPECT_EQ(runner.add(book_a, shared_lens), 0u);
  EXPECT_EQ(runner.add(book_b, shared_lens), 1u);
  EXPECT_EQ(runner.add(book_a, other_lens), 2u);
  EXPECT_EQ(runner.analyses(), 3u);
  EXPECT_EQ(runner.group_count(), 2u);  // two distinct YELTs, three books

  const auto results = runner.run();
  ASSERT_EQ(results.size(), 3u);

  expect_identical(naive_oracle(book_a, shared_lens, config), results[0],
                   "book A over shared lens");
  expect_identical(naive_oracle(book_b, shared_lens, config), results[1],
                   "book B over shared lens");
  expect_identical(naive_oracle(book_a, other_lens, config), results[2],
                   "book A over other lens");
}

TEST(PortfolioBatchRunner, SharedResolverCacheIsReused) {
  const auto portfolio = book(/*contracts=*/4, /*layers=*/2);
  const auto yelt = lens(600);
  data::ResolverCache cache;

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.resolver_cache = &cache;

  const auto first = run_portfolio_batch(portfolio, yelt, config);
  EXPECT_EQ(cache.miss_count(), portfolio.size());
  EXPECT_EQ(cache.hit_count(), 0u);

  const auto second = run_portfolio_batch(portfolio, yelt, config);
  EXPECT_EQ(cache.miss_count(), portfolio.size());
  EXPECT_EQ(cache.hit_count(), portfolio.size());
  expect_identical(first, second, "second batched run from cache");
}

}  // namespace
}  // namespace riskan::core

namespace riskan::data {
namespace {

/// Compacts a full occurrence-aligned resolution into hit columns — the
/// test-side reference for the direct build.
struct CompactColumns {
  std::vector<std::uint64_t> trial_offsets{0};
  std::vector<std::uint32_t> seqs;
  std::vector<std::uint32_t> rows;
};

CompactColumns compact_of(const ResolvedYelt& resolved, const YearEventLossTable& yelt) {
  CompactColumns out;
  const auto offsets = yelt.offsets();
  const auto rows = resolved.rows();
  for (TrialId t = 0; t < yelt.trials(); ++t) {
    for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      if (rows[i] != ResolvedYelt::kNoLoss) {
        out.seqs.push_back(static_cast<std::uint32_t>(i - offsets[t]));
        out.rows.push_back(rows[i]);
      }
    }
    out.trial_offsets.push_back(out.seqs.size());
  }
  return out;
}

void expect_direct_build_matches_compaction(const EventLossTable& elt,
                                            const YearEventLossTable& yelt,
                                            const std::string& what) {
  const auto resolved = ResolvedYelt::build(elt, yelt);
  const auto expected = compact_of(resolved, yelt);
  const EventLossTable* const one[] = {&elt};
  const auto compact = std::move(CompactResolvedYelt::build(one, yelt).front());

  ASSERT_EQ(compact.trials(), yelt.trials()) << what;
  EXPECT_EQ(compact.hits(), resolved.hits()) << what;
  ASSERT_EQ(compact.hits(), expected.seqs.size()) << what;
  for (TrialId t = 0; t <= yelt.trials(); ++t) {
    ASSERT_EQ(compact.trial_offsets()[t], expected.trial_offsets[t]) << what << " trial " << t;
  }
  for (std::uint64_t k = 0; k < compact.hits(); ++k) {
    ASSERT_EQ(compact.seqs()[k], expected.seqs[k]) << what << " hit " << k;
    ASSERT_EQ(compact.rows()[k], expected.rows[k]) << what << " hit " << k;
  }
}

TEST(CompactResolvedYelt, MatchesFullResolutionHitForHit) {
  YeltGenConfig yg;
  yg.trials = 400;
  const auto yelt = generate_yelt(300, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 300;
  pg.elt_rows = 80;
  const auto portfolio = finance::generate_portfolio(pg);
  expect_direct_build_matches_compaction(portfolio.contract(0).elt(), yelt, "generated");
}

TEST(CompactResolvedYelt, DirectBuildMatchesCompactionForDenseAndSparseIds) {
  // A thin lens (about one event a year) leaves many trials empty, and a
  // hand-built lens adds leading, trailing and all-miss trials.
  YeltGenConfig yg;
  yg.trials = 600;
  yg.mean_events_per_year = 1.0;
  yg.seed = 5;
  const auto thin = generate_yelt(400, yg);

  // Dense ids: from_rows builds the O(1) row_lookup().
  std::vector<EltRow> dense_rows;
  for (EventId e = 0; e < 400; e += 3) {
    dense_rows.push_back({e, 1e5 + e, 2e4, 1e6});
  }
  const auto dense = EventLossTable::from_rows(dense_rows);
  ASSERT_FALSE(dense.row_lookup().empty());

  // Sparse ids: the id range is far wider than 64 x rows, so there is no
  // row_lookup() and the build binary-searches with find().
  std::vector<EltRow> sparse_rows;
  for (EventId k = 0; k < 40; ++k) {
    sparse_rows.push_back({k * 100'003, 1e5 + k, 2e4, 1e6});
  }
  const auto sparse = EventLossTable::from_rows(sparse_rows);
  ASSERT_TRUE(sparse.row_lookup().empty());

  YearEventLossTable::Builder builder;
  builder.begin_trial();  // empty first trial
  builder.begin_trial();
  builder.add(0, 1);
  builder.add(100'003, 2);
  builder.add(7, 3);  // in neither table
  builder.add(39 * 100'003, 4);
  builder.begin_trial();
  builder.add(5, 5);  // misses both tables: an all-miss trial
  builder.begin_trial();
  builder.add(3, 6);
  builder.add(3, 7);  // repeated event
  builder.begin_trial();  // empty last trial
  const auto hand = builder.finish();

  for (const auto* elt : {&dense, &sparse}) {
    const std::string kind = elt == &dense ? "dense ids" : "sparse ids";
    expect_direct_build_matches_compaction(*elt, thin, kind + "/thin lens");
    expect_direct_build_matches_compaction(*elt, hand, kind + "/hand lens");
  }
  const EventLossTable* const both[] = {&sparse, &dense};
  const auto built = CompactResolvedYelt::build(both, hand);
  EXPECT_EQ(built[0].hits(), 3u);
  EXPECT_EQ(built[1].hits(), 3u);
}

TEST(CompactResolvedYelt, ParallelBuildMatchesInlineBuild) {
  YeltGenConfig yg;
  yg.trials = 2'000;
  const auto yelt = generate_yelt(500, yg);
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 500;
  pg.elt_rows = 120;
  const auto portfolio = finance::generate_portfolio(pg);
  const auto& elt = portfolio.contract(0).elt();

  const EventLossTable* const one[] = {&elt};
  const auto tiny_grain =
      std::move(CompactResolvedYelt::build(one, yelt, ParallelConfig{nullptr, 16}).front());
  const auto inline_build = std::move(
      CompactResolvedYelt::build(
          one, yelt, ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()})
          .front());

  ASSERT_EQ(tiny_grain.hits(), inline_build.hits());
  for (std::uint64_t k = 0; k < tiny_grain.hits(); ++k) {
    ASSERT_EQ(tiny_grain.seqs()[k], inline_build.seqs()[k]);
    ASSERT_EQ(tiny_grain.rows()[k], inline_build.rows()[k]);
  }
  for (TrialId t = 0; t <= yelt.trials(); ++t) {
    ASSERT_EQ(tiny_grain.trial_offsets()[t], inline_build.trial_offsets()[t]);
  }
}

TEST(MultiResolution, OneEntryPerContractThroughTheCache) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 3;
  pg.catalog_events = 300;
  pg.elt_rows = 60;
  const auto portfolio = finance::generate_portfolio(pg);
  YeltGenConfig yg;
  yg.trials = 500;
  const auto yelt = generate_yelt(300, yg);

  ResolverCache cache;
  std::vector<const EventLossTable*> elts;
  for (const auto& contract : portfolio.contracts()) {
    elts.push_back(&contract.elt());
  }
  const auto set = MultiResolution::build(elts, yelt, &cache);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(cache.miss_count(), 3u);
  for (std::size_t c = 0; c < set.size(); ++c) {
    EXPECT_EQ(set.entry(c).compact->hits(),
              ResolvedYelt::build(*elts[c], yelt).hits());
  }

  // A second set over the same tables shares the cached resolutions.
  const auto again = MultiResolution::build(elts, yelt, &cache);
  EXPECT_EQ(cache.miss_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 3u);
  for (std::size_t c = 0; c < set.size(); ++c) {
    EXPECT_EQ(again.entry(c).compact.get(), set.entry(c).compact.get());
  }
}

}  // namespace
}  // namespace riskan::data
