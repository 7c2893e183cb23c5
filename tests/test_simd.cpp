// SIMD backend — dispatch, validation and the bit-identity contract.
//
// The vectorized kernel is pure scheduling: Backend::Simd and
// Backend::ThreadedSimd must reproduce the naive oracle (and so
// Backend::Sequential) to the bit across the whole feature matrix
// (secondary sampling, OEP, grain sizes, lane tails). Hosts or builds
// without a wide ISA reject the backends up front via
// validate_engine_config — never silently run something else — which is
// also what these tests rely on to skip the identity matrix gracefully
// on scalar builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "data/elt.hpp"
#include "finance/contract.hpp"
#include "finance/terms.hpp"
#include "naive_oracle.hpp"
#include "util/require.hpp"

namespace riskan::core {
namespace {

/// Scoped environment override that restores the previous value on exit
/// (simd_dispatch() re-reads the environment on every call).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(SimdDispatch, DecisionIsSelfConsistent) {
  const exec::SimdDispatch d = exec::simd_dispatch();
  if (d.width > 0) {
    EXPECT_TRUE(d.compiled);
    EXPECT_NE(d.kernel, nullptr);
    EXPECT_NE(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.name, "none");
    EXPECT_TRUE(d.width == 2 || d.width == 4 || d.width == 8) << d.width;
  } else {
    EXPECT_EQ(d.kernel, nullptr);
    EXPECT_EQ(d.isa, exec::SimdIsa::None);
    EXPECT_STRNE(d.reason, "") << "rejection must carry a reason";
  }
}

TEST(SimdDispatch, EnvOffDisablesDispatch) {
  for (const char* off : {"off", "0"}) {
    EnvGuard guard("RISKAN_SIMD", off);
    const exec::SimdDispatch d = exec::simd_dispatch();
    EXPECT_EQ(d.width, 0u) << off;
    EXPECT_EQ(d.kernel, nullptr) << off;
    EXPECT_NE(std::string(d.reason).find("RISKAN_SIMD"), std::string::npos)
        << "reason should name the override: " << d.reason;
  }
}

TEST(SimdDispatch, EnvRequiringForeignIsaRejects) {
  // Requiring the ISA this host does not dispatch must fail closed.
  exec::SimdDispatch base;
  {
    EnvGuard guard("RISKAN_SIMD", nullptr);
    base = exec::simd_dispatch();
  }
  const char* foreign =
      base.isa == exec::SimdIsa::Neon ? "avx2" : "neon";
  EnvGuard guard("RISKAN_SIMD", foreign);
  const exec::SimdDispatch d = exec::simd_dispatch();
  EXPECT_EQ(d.width, 0u);
  EXPECT_EQ(d.kernel, nullptr);
}

TEST(SimdDispatch, ValidationRejectsSimdBackendWhenUnavailable) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 100;
  pg.elt_rows = 30;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 50;
  const auto yelt = data::generate_yelt(100, yg);

  // RISKAN_SIMD=off makes the backend unavailable on every build, so the
  // rejection path is exercised on SIMD-enabled hosts too.
  EnvGuard guard("RISKAN_SIMD", "off");
  for (const Backend backend : kSimdBackends) {
    EngineConfig config;
    config.backend = backend;
    EXPECT_THROW((void)run_aggregate_analysis(portfolio, yelt, config),
                 ContractViolation)
        << to_string(backend);
  }
}

TEST(SimdDispatch, ScalarBuildAlwaysRejectsSimdBackend) {
  const exec::SimdDispatch d = exec::simd_dispatch();
  if (d.compiled) {
    GTEST_SKIP() << "wide kernels compiled in; covered by the env-off test";
  }
  finance::PortfolioGenConfig pg;
  pg.contracts = 1;
  pg.catalog_events = 100;
  pg.elt_rows = 30;
  const auto portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = 50;
  const auto yelt = data::generate_yelt(100, yg);

  EngineConfig config;
  config.backend = Backend::Simd;
  EXPECT_THROW((void)run_aggregate_analysis(portfolio, yelt, config),
               ContractViolation);
}

TEST(ApplyOccurrenceLanes, MatchesScalarBitwiseBothRetentionKinds) {
  // Property surface of the lane algebra: every element of the dispatched
  // lane call must equal the scalar finance::apply_occurrence bit for bit,
  // including retention/limit boundaries, zeros and odd (tail) lengths.
  for (const auto kind :
       {finance::RetentionKind::Deductible, finance::RetentionKind::Franchise}) {
    finance::LayerTerms terms = finance::LayerTerms::typical();
    terms.occ_retention = 1e6;
    terms.occ_limit = 5e6;
    terms.retention_kind = kind;
    terms.validate();

    const std::vector<Money> ground_up = {
        0.0,    1e5,       1e6 - 1e-3, 1e6,         1e6 + 1e-3,
        2.5e6,  5e6,       6e6 - 1.0,  6e6,         6e6 + 1.0,
        1e9,    1e6 * 0.5, 7.25e6,     // 13 entries: odd, exercises tails
    };
    for (std::size_t n = 0; n <= ground_up.size(); ++n) {
      std::vector<Money> lanes(n, -1.0);
      batch::apply_occurrence_lanes(terms, ground_up.data(), n, lanes.data());
      for (std::size_t i = 0; i < n; ++i) {
        const Money scalar = finance::apply_occurrence(terms, ground_up[i]);
        ASSERT_EQ(lanes[i], scalar)
            << "kind=" << static_cast<int>(kind) << " n=" << n << " i=" << i
            << " gu=" << ground_up[i];
      }
    }
  }
}

/// An ELT covering every parameter class of the batched sampler: zero-mean
/// and pinned-at-exposure degenerates, a deterministic (tiny-sigma) row,
/// both-shapes >= 1, single-boost rows on each side, and a very high-CV row
/// where both shapes sit well below 1 (rejection-heavy).
data::EventLossTable sampler_class_elt() {
  const Money exposure = 4e6;
  std::vector<data::EltRow> rows;
  rows.push_back({0, 0.0, 1e5, exposure});     // degenerate: zero mean
  rows.push_back({1, exposure, 1e5, exposure});  // degenerate: pinned at limit
  rows.push_back({2, 1e6, 1e-6, exposure});    // degenerate: deterministic
  rows.push_back({3, 2e6, 6e5, exposure});     // alpha, beta both >= 1
  rows.push_back({4, 1e5, 2e5, exposure});     // CV 2: alpha < 1 (boost)
  rows.push_back({5, 3.9e6, 2e5, exposure});   // mirrored: beta < 1 (boost)
  rows.push_back({6, 4e5, 1e6, exposure});     // CV 2.5: both shapes < 1
  return data::EventLossTable::from_rows(std::move(rows));
}

TEST(SecondarySamplerLanes, MatchesScalarSampleBitwise) {
  // sample_lanes must commit, per occurrence, exactly the bits the scalar
  // sampler draws from occurrence_stream — fast path and rejection-tail
  // fallback alike — across every parameter class and across batch sizes
  // that exercise sub-width lane tails and the 64-occurrence batching.
  const auto elt = sampler_class_elt();
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0xB10CDEADu);
  const std::uint64_t hi_key = (std::uint64_t{12} << 16) | 3u;  // contract 12, layer 3

  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{130}, std::size_t{257}}) {
    std::vector<std::uint32_t> rows(n);
    std::vector<std::uint64_t> lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<std::uint32_t>(i % sampler.size());
      lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
    }
    std::vector<Money> out(n, -1.0);
    const std::uint64_t fast_before = fast;
    const std::uint64_t tail_before = tail;
    sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                         tail);
    EXPECT_EQ((fast - fast_before) + (tail - tail_before), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      PhiloxStream stream(engine, hi_key, lo[i]);
      const Money scalar = sampler.sample(rows[i], stream);
      ASSERT_EQ(out[i], scalar) << "n=" << n << " i=" << i << " row=" << rows[i];
    }
  }

  // The same contract holds with vector dispatch forced off: the facade
  // falls back to the scalar block body without moving a bit.
  EnvGuard guard("RISKAN_SIMD", "off");
  const std::size_t n = 130;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i % sampler.size());
    lo[i] = (static_cast<std::uint64_t>(i) << 20) | static_cast<std::uint64_t>(i % 7);
  }
  std::vector<Money> out(n, -1.0);
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "off-mode i=" << i;
  }
}

TEST(SecondarySamplerLanes, RejectionHeavyRowsExerciseTheFallback) {
  // A table of only very high-CV rows (both gamma shapes < 1) rejects the
  // first Marsaglia–Tsang attempt often enough that the scalar fallback
  // must fire — and every fallback sample still matches the scalar path.
  std::vector<data::EltRow> heavy;
  heavy.push_back({0, 4e5, 1e6, 4e6});
  heavy.push_back({1, 1e5, 2.4e5, 4e6});
  const auto elt = data::EventLossTable::from_rows(std::move(heavy));
  const SecondarySampler sampler(elt);
  const Philox4x32 engine(0x7E57u);
  const std::uint64_t hi_key = (std::uint64_t{1} << 16) | 1u;

  const std::size_t n = 2048;
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<std::uint32_t>(i & 1);
    lo[i] = static_cast<std::uint64_t>(i) << 20;
  }
  std::vector<Money> out(n);
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  sampler.sample_lanes(engine, hi_key, rows.data(), lo.data(), n, out.data(), fast,
                       tail);
  EXPECT_EQ(fast + tail, n);
  EXPECT_GT(tail, 0u) << "high-CV rows should reject some first attempts";
  EXPECT_GT(fast, 0u) << "most first attempts should still accept";
  for (std::size_t i = 0; i < n; ++i) {
    PhiloxStream stream(engine, hi_key, lo[i]);
    ASSERT_EQ(out[i], sampler.sample(rows[i], stream)) << "i=" << i;
  }
}

TEST(MaxRangeLanes, MatchesScalarMaxIncludingTails) {
  // finalize_oep's vector scan: bitwise-equal to the scalar running max on
  // its input class (non-NaN, >= +0.0) for every length and seed value,
  // including ties and sub-width tails.
  const std::vector<Money> values = {0.0, 3.5e6, 1.0, 3.5e6, 2e9,  0.0, 7.25,
                                     2e9, 1e-12, 5.0, 42.0,  42.0, 41.0};
  for (std::size_t n = 0; n <= values.size(); ++n) {
    for (const Money init : {0.0, 1.0, 1e12}) {
      Money scalar = init;
      for (std::size_t i = 0; i < n; ++i) {
        scalar = std::max(scalar, values[i]);
      }
      EXPECT_EQ(batch::max_range_lanes(values.data(), n, init), scalar)
          << "n=" << n << " init=" << init;
    }
  }
  EnvGuard guard("RISKAN_SIMD", "off");
  EXPECT_EQ(batch::max_range_lanes(values.data(), values.size(), 0.0), 2e9);
}

finance::Portfolio simd_book(std::size_t contracts, int layers,
                             std::uint64_t seed = 99, EventId catalog = 800,
                             std::size_t elt_rows = 150) {
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers;
  pg.seed = seed;
  return finance::generate_portfolio(pg);
}

data::YearEventLossTable simd_lens(TrialId trials, EventId catalog = 800,
                                   std::uint64_t seed = 7,
                                   double events_per_year = 10.0) {
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = seed;
  yg.mean_events_per_year = events_per_year;
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

TEST(SimdBackend, BitIdenticalToSequentialAcrossFeatureMatrix) {
  if (!exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  const auto portfolio = simd_book(/*contracts=*/6, /*layers=*/3);
  const auto yelt = simd_lens(1'500);

  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      config.compute_oep = oep;
      const auto reference = oracle::naive_oracle(portfolio, yelt, config);

      config.backend = Backend::Simd;
      const auto simd = run_aggregate_analysis(portfolio, yelt, config);
      const std::string what =
          std::string(secondary ? "secondary" : "means") + (oep ? "/oep" : "/no-oep");
      expect_identical(reference, simd, "simd/" + what);
      EXPECT_EQ(reference.elt_lookups, simd.elt_lookups) << what;
      EXPECT_EQ(reference.occurrences_processed, simd.occurrences_processed) << what;

      for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
        config.backend = Backend::ThreadedSimd;
        config.trial_grain = grain;
        const auto threaded = run_aggregate_analysis(portfolio, yelt, config);
        expect_identical(reference, threaded,
                         "threaded-simd/" + what + "/grain=" + std::to_string(grain));
      }
    }
  }
}

TEST(SimdBackend, LaneTailsOnHeavyAndOddHitCounts) {
  if (!exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  // An ELT covering the full catalogue makes every occurrence a hit, and a
  // high occurrence rate gives trials with hit counts well past the vector
  // width — including counts not divisible by it, so the scalar lane tail
  // runs on most trials. A second, thin lens (1–2 events per year) keeps
  // sub-width trials in the mix.
  const EventId catalog = 120;
  const auto portfolio =
      simd_book(/*contracts=*/3, /*layers=*/2, /*seed=*/5, catalog,
                /*elt_rows=*/catalog);
  for (const double events_per_year : {1.5, 23.0}) {
    const auto yelt = simd_lens(600, catalog, /*seed=*/13, events_per_year);
    for (const bool secondary : {false, true}) {
      EngineConfig config;
      config.secondary_uncertainty = secondary;
      const auto reference = oracle::naive_oracle(portfolio, yelt, config);
      config.backend = Backend::Simd;
      const auto simd = run_aggregate_analysis(portfolio, yelt, config);
      expect_identical(reference, simd,
                       "tails/rate=" + std::to_string(events_per_year) +
                           (secondary ? "/secondary" : "/means"));
    }
  }
}

TEST(SimdBackend, EmptyAndDegenerateTrials) {
  if (!exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  // Near-empty lens: most trials have zero occurrences (n == 0 early-out).
  const auto portfolio = simd_book(/*contracts=*/2, /*layers=*/1);
  const auto yelt = simd_lens(400, 800, /*seed=*/3, /*events_per_year=*/0.3);

  EngineConfig config;
  const auto reference = oracle::naive_oracle(portfolio, yelt, config);
  config.backend = Backend::Simd;
  const auto simd = run_aggregate_analysis(portfolio, yelt, config);
  expect_identical(reference, simd, "sparse lens");
}

}  // namespace
}  // namespace riskan::core
