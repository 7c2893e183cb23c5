// The attachment cut: secondary-uncertainty draws that cannot reach a
// layer are skipped, and no output moves a bit.
//
// Every sample of an ELT row is at most the row's exposure
// (SecondarySampler::max_loss), so an occurrence whose scaled exposure sits
// at or below the layer's occurrence retention can only contribute +0.0.
// The kernels skip its draw (core/secondary.hpp). These tests pin the
// bound itself over many streams and every parameter class, the lane
// sampler's skip accounting, and the engine against the naive oracle —
// which samples every occurrence — on books whose retentions straddle
// their exposures, on both kernels and both host backends, through scaled
// and masked scenario slots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "data/elt.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"
#include "kernel_modes.hpp"
#include "naive_oracle.hpp"
#include "obs/obs.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace riskan::core {
namespace {

constexpr EventId kCatalog = 96;

/// One ELT row per event, cycling through every sampler class —
/// degenerate (zero mean, pinned at the exposure, deterministic), both
/// shapes >= 1, a boost on either side, and both shapes < 1 (rejection
/// heavy) — over exposures spread from 2.5e5 to 8e6. `scale` multiplies
/// every money column; a power of two keeps each sample exactly `scale`
/// times the unscaled one.
data::EventLossTable straddle_elt(Money scale = 1.0) {
  std::vector<data::EltRow> rows;
  for (EventId e = 0; e < kCatalog; ++e) {
    const Money exposure = 2.5e5 * static_cast<Money>(1 + e % 32);
    Money mean = 0.0;
    Money sigma = 0.0;
    switch (e % 7) {
      case 0:
        mean = 0.0;  // degenerate: zero mean
        sigma = 0.1 * exposure;
        break;
      case 1:
        mean = exposure;  // degenerate: pinned at the exposure
        sigma = 0.1 * exposure;
        break;
      case 2:
        mean = 0.4 * exposure;  // degenerate: deterministic
        sigma = 1e-12 * exposure;
        break;
      case 3:
        mean = 0.5 * exposure;  // both shapes >= 1
        sigma = 0.15 * exposure;
        break;
      case 4:
        mean = 0.05 * exposure;  // alpha < 1: boosted
        sigma = 0.1 * exposure;
        break;
      case 5:
        mean = 0.95 * exposure;  // beta < 1: boosted
        sigma = 0.06 * exposure;
        break;
      default:
        mean = 0.1 * exposure;  // both shapes < 1: rejection heavy
        sigma = 0.25 * exposure;
        break;
    }
    rows.push_back({e, scale * mean, scale * sigma, scale * exposure});
  }
  return data::EventLossTable::from_rows(std::move(rows));
}

finance::Layer layer(LayerId id, Money retention, finance::RetentionKind kind) {
  finance::Layer l;
  l.id = id;
  l.terms.occ_retention = retention;
  l.terms.occ_limit = 3e6;
  l.terms.retention_kind = kind;
  l.terms.share = 0.75;
  l.reinstatements.count = 1;
  l.reinstatements.premium_rate = 1.0;
  l.upfront_premium = 1e5;
  return l;
}

/// Two contracts whose layers attach inside the exposure range, so a
/// share of every layer's occurrences is dead. Retentions 1e6, 2e6 and
/// 4e6 equal row exposures exactly (the cut's boundary: dead, since a
/// sample equal to the retention pays nothing); 4e6 is also twice the 2e6
/// rows, the boundary of a loss_scale 2 scenario.
finance::Portfolio straddle_book(Money elt_scale = 1.0) {
  using finance::RetentionKind;
  finance::Portfolio book;
  book.add(finance::Contract(1, straddle_elt(elt_scale),
                             {layer(1, 1e6, RetentionKind::Deductible),
                              layer(2, 2e6, RetentionKind::Franchise),
                              layer(3, 4e6, RetentionKind::Deductible)}));
  book.add(finance::Contract(2, straddle_elt(elt_scale),
                             {layer(1, 2.6e6, RetentionKind::Franchise),
                              layer(2, 0.0, RetentionKind::Deductible)}));
  return book;
}

data::YearEventLossTable straddle_lens(TrialId trials = 700) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = 41;
  yg.mean_events_per_year = 9.0;
  return data::generate_yelt(kCatalog, yg);
}

void expect_identical(const EngineResult& a, const EngineResult& b, const std::string& what) {
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

/// Occurrences of `book` over `yelt` that every kernel skips: hits on rows
/// whose exposure sits at or below the layer's retention (loss_scale 1).
std::uint64_t dead_hits(const finance::Portfolio& book, const data::YearEventLossTable& yelt) {
  std::uint64_t dead = 0;
  for (const auto& contract : book.contracts()) {
    const data::EventLossTable& elt = contract.elt();
    for (const auto& l : contract.layers()) {
      const AttachmentCut cut{1.0, l.terms.occ_retention};
      for (const EventId e : yelt.events()) {
        const std::size_t row = elt.find(e);
        dead += row != data::EventLossTable::npos && cut.dead(elt.exposure()[row]) ? 1 : 0;
      }
    }
  }
  return dead;
}

TEST(AttachmentCut, SamplesNeverExceedMaxLoss) {
  // The bound the cut rests on, over many streams per row: the scalar
  // sampler and the lane sampler (fast path and rejection tail) never
  // return more than the row's exposure.
  const auto elt = straddle_elt();
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0xC0FFEEu);
  const std::uint64_t hi_key = (std::uint64_t{3} << 16) | 2u;

  const std::size_t n = 40'000;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i % sampler.size());
    lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 11);
  }
  std::vector<Money> out(n, -1.0);
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  std::uint64_t skipped = 0;
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, AttachmentCut{},
                       out.data(), fast, tail, skipped);
  EXPECT_EQ(fast + tail, n);
  EXPECT_EQ(skipped, 0u);
  EXPECT_GT(tail, 0u) << "the rejection-heavy rows must exercise the scalar tail";

  for (std::size_t i = 0; i < n; ++i) {
    const Money bound = sampler.max_loss(rows[i]);
    ASSERT_EQ(bound, elt.exposure()[rows[i]]);
    PhiloxStream stream(engine, hi_key, lo[i]);
    const Money scalar = sampler.sample(rows[i], stream);
    ASSERT_LE(scalar, bound) << "row " << rows[i] << " i=" << i;
    ASSERT_GE(scalar, 0.0) << "row " << rows[i] << " i=" << i;
    ASSERT_LE(out[i], bound) << "lanes, row " << rows[i] << " i=" << i;
  }
}

TEST(AttachmentCut, LaneSamplerSkipsExactlyTheDeadRows) {
  // Under a cut, sample_lanes draws nothing for dead occurrences, counts
  // them as skipped, and commits a value the layer maps to the same +0.0
  // the full draw would; live occurrences keep the scalar sampler's bits.
  const auto elt = straddle_elt();
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0x5EEDu);
  const std::uint64_t hi_key = (std::uint64_t{9} << 16) | 1u;

  for (const double scale : {1.0, 2.0, 0.7}) {
    for (const auto kind :
         {finance::RetentionKind::Deductible, finance::RetentionKind::Franchise}) {
      finance::LayerTerms terms;
      terms.occ_retention = 2e6;
      terms.occ_limit = 3e6;
      terms.retention_kind = kind;
      const AttachmentCut cut{scale, terms.occ_retention};

      for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{1'000}}) {
        std::vector<std::uint32_t> rows(n);
        std::vector<std::uint64_t> lo(n);
        std::uint64_t expected_dead = 0;
        for (std::size_t i = 0; i < n; ++i) {
          rows[i] = static_cast<std::uint32_t>((i * 37) % sampler.size());
          lo[i] = static_cast<std::uint64_t>(i) << 20;
          expected_dead += cut.dead(sampler.max_loss(rows[i])) ? 1 : 0;
        }
        std::vector<Money> out(n, -1.0);
        std::uint64_t fast = 0;
        std::uint64_t tail = 0;
        std::uint64_t skipped = 0;
        sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, cut, out.data(),
                             fast, tail, skipped);
        const std::string what = "scale=" + std::to_string(scale) +
                                 " kind=" + std::to_string(static_cast<int>(kind)) +
                                 " n=" + std::to_string(n);
        EXPECT_EQ(skipped, expected_dead) << what;
        EXPECT_EQ(fast + tail + skipped, n) << what;
        if (n == 1'000) {
          EXPECT_GT(skipped, 0u) << what;
          EXPECT_LT(skipped, n) << what;
        }
        for (std::size_t i = 0; i < n; ++i) {
          PhiloxStream stream(engine, hi_key, lo[i]);
          const Money drawn = sampler.sample(rows[i], stream);
          if (!cut.dead(sampler.max_loss(rows[i]))) {
            ASSERT_EQ(out[i], drawn) << what << " live i=" << i;
            continue;
          }
          ASSERT_LE(out[i] * scale, terms.occ_retention) << what << " dead i=" << i;
          ASSERT_EQ(finance::apply_occurrence(terms, out[i] * scale), 0.0) << what;
          ASSERT_EQ(finance::apply_occurrence(terms, drawn * scale), 0.0) << what;
        }
      }
    }
  }
}

TEST(AttachmentCut, EngineMatchesOracleWithRetentionsStraddlingExposures) {
  // Secondary and OEP on, Deductible and Franchise layers, retentions equal
  // to row exposures: the engine skips the dead draws, the oracle samples
  // every occurrence, and every output agrees to the bit on both kernels
  // and both backends.
  const auto book = straddle_book();
  const auto yelt = straddle_lens();
  ASSERT_GT(dead_hits(book, yelt), 0u);

  EngineConfig config;
  config.secondary_uncertainty = true;
  config.compute_oep = true;
  const auto reference = oracle::naive_oracle(book, yelt, config);
  for (const test_support::EngineRow& row : test_support::engine_rows()) {
    const test_support::KernelScope scope(row.mode);
    for (const std::size_t grain : {std::size_t{0}, std::size_t{7}}) {
      if (row.backend != Backend::Threaded && grain != 0) {
        continue;
      }
      config.backend = row.backend;
      config.trial_grain = grain;
      expect_identical(reference, run_aggregate_analysis(book, yelt, config),
                       test_support::to_string(row) + "/grain=" + std::to_string(grain));
    }
  }
}

TEST(AttachmentCut, SkippedCounterEqualsHitsOnDeadRows) {
  if (!exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  if (!obs::enabled()) {
    GTEST_SKIP() << "observability disabled (RISKAN_OBS=0): counters do not move";
  }
  // The base engine lowers every (contract, layer) to a singleton unmasked
  // slot, which the vector kernel samples through sample_lanes; each hit on
  // a dead row is one skipped draw.
  const auto book = straddle_book();
  const auto yelt = straddle_lens();
  const auto counter = [](const char* name) {
    return obs::MetricsRegistry::global().snapshot().counter_value(name);
  };
  for (const Backend backend : kAllBackends) {
    EngineConfig config;
    config.backend = backend;
    const double skipped0 = counter("exec.simd.sampler.skipped");
    const double fast0 = counter("exec.simd.sampler.fast");
    const double tail0 = counter("exec.simd.sampler.tail");
    const EngineResult result = run_aggregate_analysis(book, yelt, config);
    const double skipped = counter("exec.simd.sampler.skipped") - skipped0;
    const double drawn =
        counter("exec.simd.sampler.fast") - fast0 + counter("exec.simd.sampler.tail") - tail0;
    EXPECT_EQ(static_cast<std::uint64_t>(skipped), dead_hits(book, yelt))
        << to_string(backend);
    EXPECT_EQ(static_cast<std::uint64_t>(skipped + drawn), result.elt_lookups)
        << to_string(backend);
  }
}

TEST(AttachmentCut, ScaledAndMaskedScenarioSlotsMatchOracle) {
  // A loss_scale 2 scenario equals the oracle on the book with every ELT
  // money column doubled (power-of-two scaling is exact, so each sample
  // doubles bit for bit), and its retention of 4e6 sits exactly on the
  // doubled 2e6 rows. A mask scenario equals the oracle on the filtered
  // YELT. Swept over `book`, the scenarios share gather groups with the
  // base slots and run the scalar grouped loop, where a dead slot must
  // leave the shared draw to its live siblings. Swept over an unrelated
  // base book that each scenario drops, adding the straddle contracts in
  // its place, every scenario slot is a singleton group: the scaled slot
  // takes the vector pass, the masked slot the scalar singleton loop.
  const auto book = straddle_book();
  const auto doubled = straddle_book(2.0);
  const auto yelt = straddle_lens(500);
  const std::vector<EventId> excluded = {1, 4, 9, 16, 25, 36, 49};
  const auto filtered = scenario::filter_yelt(yelt, excluded);
  ASSERT_LT(filtered.entries(), yelt.entries());

  EngineConfig config;
  config.secondary_uncertainty = true;
  config.compute_oep = true;
  const auto base_ref = oracle::naive_oracle(book, yelt, config);
  const auto surge_ref = oracle::naive_oracle(doubled, yelt, config);
  const auto mask_ref = oracle::naive_oracle(book, filtered, config);

  scenario::ScenarioSpec surge;
  surge.name = "surge";
  surge.loss_scale = 2.0;
  scenario::ScenarioSpec mask;
  mask.name = "mask";
  mask.excluded_events = excluded;

  finance::Portfolio other;
  other.add(finance::Contract(10, straddle_elt(),
                              {layer(1, 1e6, finance::RetentionKind::Deductible)}));
  const std::vector<const finance::Contract*> added = {&book.contract(0), &book.contract(1)};
  scenario::ScenarioSpec surge_alone = surge;
  surge_alone.dropped_contracts = {10};
  surge_alone.added_contracts = added;
  scenario::ScenarioSpec mask_alone = mask;
  mask_alone.dropped_contracts = {10};
  mask_alone.added_contracts = added;

  for (const test_support::EngineRow& row : test_support::engine_rows()) {
    const test_support::KernelScope scope(row.mode);
    config.backend = row.backend;
    const std::string what = test_support::to_string(row);

    const auto together = scenario::run_scenario_sweep(
        book, yelt, std::vector<scenario::ScenarioSpec>{surge, mask}, config);
    expect_identical(base_ref, together.base, what + " shared/base");
    expect_identical(surge_ref, together.scenarios[0], what + " shared/surge");
    expect_identical(mask_ref, together.scenarios[1], what + " shared/mask");

    const auto alone = scenario::run_scenario_sweep(
        other, yelt, std::vector<scenario::ScenarioSpec>{surge_alone, mask_alone}, config);
    expect_identical(surge_ref, alone.scenarios[0], what + " alone/surge");
    expect_identical(mask_ref, alone.scenarios[1], what + " alone/mask");
  }
}

}  // namespace
}  // namespace riskan::core
