// Convergence-adaptive stopping: the determinism matrix. The stopping
// trial count is contractual — a pure function of (seed, config, data) —
// so every test here pins bit-identity, not tolerance: the adaptive run's
// YLT must equal the *prefix* of the fixed-budget run across backends,
// source chunkings, dist worker counts, and the MapReduce runtime; with
// adaptivity off nothing may change at all. The stratified sampler gets
// the same treatment: strata partition the trial population exactly,
// Neyman allocations conserve the budget, and every drawn loss equals the
// same trial of a full run bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "core/adaptive/adaptive.hpp"
#include "core/adaptive/driver.hpp"
#include "core/adaptive/stratified.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "dist/coordinator.hpp"
#include "finance/contract.hpp"
#include "mapreduce/aggregate_job.hpp"
#include "mapreduce/dfs.hpp"
#include "naive_oracle.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/require.hpp"

namespace riskan::core::adaptive {
namespace {

constexpr TrialId kTrials = 4'000;
constexpr TrialId kBlock = 250;

struct AdaptiveWorld {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
  core::EngineResult full;  ///< fixed-budget Sequential reference (OEP on)
  std::vector<std::vector<std::byte>> encoded;  ///< kBlock-trial dist blocks
  std::vector<dist::BlockSpec> specs;
};

const AdaptiveWorld& world() {
  static const AdaptiveWorld w = [] {
    AdaptiveWorld built;
    finance::PortfolioGenConfig pg;
    pg.contracts = 3;
    pg.catalog_events = 150;
    pg.elt_rows = 30;
    built.portfolio = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = kTrials;
    built.yelt = data::generate_yelt(150, yg);

    for (TrialId lo = 0; lo < kTrials; lo += kBlock) {
      const TrialId hi = std::min<TrialId>(kTrials, lo + kBlock);
      ByteWriter writer;
      data::encode_yelt_slice(built.yelt, lo, hi, writer);
      built.specs.push_back({built.encoded.size(), lo, hi - lo});
      built.encoded.push_back(writer.buffer());
    }

    core::EngineConfig engine;
    engine.backend = core::Backend::Sequential;
    engine.compute_oep = true;
    engine.keep_contract_ylts = true;
    built.full = core::run_aggregate_analysis(built.portfolio, built.yelt, engine);
    return built;
  }();
  return w;
}

/// A target the world's book reaches mid-run: loose enough to converge
/// before kTrials, tight enough that min_trials is not the binding
/// constraint. The mid-run tests assert min_trials < stop < kTrials, so a
/// data change that breaks the tuning fails loudly instead of silently
/// degenerating into an Exhausted run.
AdaptiveConfig tuned() {
  AdaptiveConfig ad;
  ad.target_rel_err = 0.20;
  ad.confidence = 0.90;
  ad.min_trials = 1'000;
  ad.block_trials = kBlock;
  ad.min_batches = 4;
  ad.tail_level = 0.90;
  return ad;
}

core::EngineConfig adaptive_engine(core::Backend backend = core::Backend::Sequential) {
  core::EngineConfig engine;
  engine.backend = backend;
  engine.compute_oep = true;
  engine.keep_contract_ylts = true;
  engine.adaptive = tuned();
  return engine;
}

void expect_prefix(const data::YearLossTable& prefix, const data::YearLossTable& full) {
  ASSERT_LE(prefix.trials(), full.trials());
  for (TrialId t = 0; t < prefix.trials(); ++t) {
    ASSERT_EQ(prefix[t], full[t]) << "trial " << t;
  }
}

void expect_same_ylt(const data::YearLossTable& a, const data::YearLossTable& b) {
  ASSERT_EQ(a.trials(), b.trials());
  expect_prefix(a, b);
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(AdaptiveConfigValidation, AcceptsDefaultsAndTuned) {
  EXPECT_NO_THROW(validate_adaptive_config(AdaptiveConfig{}));
  EXPECT_NO_THROW(validate_adaptive_config(tuned()));
}

TEST(AdaptiveConfigValidation, RejectsNonsense) {
  const auto rejects = [](auto&& mutate) {
    AdaptiveConfig ad = tuned();
    mutate(ad);
    EXPECT_THROW(validate_adaptive_config(ad), ContractViolation);
  };
  rejects([](AdaptiveConfig& ad) { ad.target_rel_err = 1.0; });
  rejects([](AdaptiveConfig& ad) { ad.target_rel_err = -0.1; });
  rejects([](AdaptiveConfig& ad) { ad.confidence = 0.4; });
  rejects([](AdaptiveConfig& ad) { ad.confidence = 1.0; });
  rejects([](AdaptiveConfig& ad) { ad.tail_level = 0.0; });
  rejects([](AdaptiveConfig& ad) { ad.tail_level = 1.0; });
  rejects([](AdaptiveConfig& ad) { ad.block_trials = 0; });
  rejects([](AdaptiveConfig& ad) { ad.min_batches = 1; });
  rejects([](AdaptiveConfig& ad) { ad.metrics = 1u << 13; });
  rejects([](AdaptiveConfig& ad) { ad.metrics = 0; });
  rejects([](AdaptiveConfig& ad) { ad.min_trials = 0; });
  rejects([](AdaptiveConfig& ad) {
    ad.min_trials = 100;
    ad.max_trials = 50;
  });
}

TEST(AdaptiveConfigValidation, EngineRejectsOccurrenceMetricsWithoutOep) {
  core::EngineConfig engine = adaptive_engine();
  engine.compute_oep = false;
  engine.adaptive.metrics |= kOccVar;
  EXPECT_THROW(core::run_aggregate_analysis(world().portfolio, world().yelt, engine),
               ContractViolation);
}

TEST(AdaptiveConfigValidation, NonsenseRejectedEvenWhenDisabled) {
  // A disabled-but-nonsensical config must not ride along silently.
  core::EngineConfig engine;
  engine.adaptive.target_rel_err = 0.0;
  engine.adaptive.confidence = 0.3;
  EXPECT_THROW(core::run_aggregate_analysis(world().portfolio, world().yelt, engine),
               ContractViolation);
}

TEST(AdaptiveReportContract, EstimateRequiresMonitoredMetric) {
  core::EngineConfig engine = adaptive_engine();
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_NO_THROW(result.adaptive.estimate(kMean));
  EXPECT_THROW(result.adaptive.estimate(kOccTvar), ContractViolation);
}

// ---------------------------------------------------------------------------
// ReblockedSource — the decision grid
// ---------------------------------------------------------------------------

TEST(ReblockedSource, RechunksOntoTheGridExactly) {
  data::InMemorySource inner(world().yelt);
  data::ReblockedSource grid(inner, 300);
  EXPECT_EQ(grid.trials(), kTrials);
  EXPECT_EQ(grid.block_count(), (kTrials + 299) / 300);

  TrialId seen = 0;
  std::size_t index = 0;
  data::TrialBlock block;
  while (grid.next(block)) {
    EXPECT_EQ(block.trial_offset, seen);
    EXPECT_EQ(block.index, index);
    const TrialId expect_trials = std::min<TrialId>(300, kTrials - seen);
    ASSERT_EQ(block.yelt->trials(), expect_trials);
    // Every re-sliced trial must carry the original trial's event set.
    for (TrialId t = 0; t < expect_trials; ++t) {
      const auto events = block.yelt->trial_events(t);
      const auto expect_events = world().yelt.trial_events(seen + t);
      ASSERT_EQ(std::vector(events.begin(), events.end()),
                std::vector(expect_events.begin(), expect_events.end()))
          << "trial " << seen + t;
    }
    seen += expect_trials;
    ++index;
  }
  EXPECT_EQ(seen, kTrials);
}

TEST(ReblockedSource, AlignedBlocksPassThroughZeroCopy) {
  data::InMemorySource inner(world().yelt);
  data::ReblockedSource grid(inner, kTrials);
  data::TrialBlock block;
  ASSERT_TRUE(grid.next(block));
  // The inner block lands on the grid: same table object, no re-slice.
  EXPECT_EQ(block.yelt.get(), &world().yelt);
  EXPECT_FALSE(grid.next(block));
}

TEST(ReblockedSource, TrialCapClipsTheTail) {
  data::InMemorySource inner(world().yelt);
  data::ReblockedSource grid(inner, 500, 1'234);
  EXPECT_EQ(grid.trials(), 1'234u);
  std::vector<TrialId> sizes;
  data::TrialBlock block;
  while (grid.next(block)) {
    sizes.push_back(block.yelt->trials());
  }
  EXPECT_EQ(sizes, (std::vector<TrialId>{500, 500, 234}));
}

TEST(ReblockedSource, ResetRewindsForAnotherPass) {
  data::InMemorySource inner(world().yelt);
  data::ReblockedSource grid(inner, 1'000);
  data::TrialBlock block;
  std::size_t first_pass = 0;
  while (grid.next(block)) {
    ++first_pass;
  }
  grid.reset();
  std::size_t second_pass = 0;
  while (grid.next(block)) {
    ++second_pass;
  }
  EXPECT_EQ(first_pass, second_pass);
}

// ---------------------------------------------------------------------------
// Engine-level stopping determinism
// ---------------------------------------------------------------------------

TEST(AdaptiveStopping, ConvergesMidRunToAPrefixOfTheFixedRun) {
  const auto result =
      core::run_aggregate_analysis(world().portfolio, world().yelt, adaptive_engine());
  const AdaptiveReport& report = result.adaptive;

  ASSERT_TRUE(report.enabled);
  EXPECT_EQ(report.stop_reason, StopReason::Converged);
  EXPECT_TRUE(report.converged());
  EXPECT_EQ(report.trials_available, kTrials);
  // Mid-run: the tuning must neither stop at the floor nor exhaust the
  // source — either means these tests stopped testing adaptivity.
  EXPECT_GE(report.trials_run, tuned().min_trials);
  EXPECT_LT(report.trials_run, kTrials);
  EXPECT_EQ(report.trials_run % kBlock, 0u);
  EXPECT_EQ(report.blocks_folded, report.trials_run / kBlock);

  ASSERT_EQ(result.portfolio_ylt.trials(), report.trials_run);
  expect_prefix(result.portfolio_ylt, world().full.portfolio_ylt);
  expect_prefix(result.portfolio_occurrence_ylt, world().full.portfolio_occurrence_ylt);
  expect_prefix(result.reinstatement_premium, world().full.reinstatement_premium);
  ASSERT_EQ(result.contract_ylts.size(), world().full.contract_ylts.size());
  for (std::size_t c = 0; c < result.contract_ylts.size(); ++c) {
    expect_prefix(result.contract_ylts[c], world().full.contract_ylts[c]);
  }

  ASSERT_EQ(report.estimates.size(), 3u);
  EXPECT_EQ(report.estimates[0].metric, kMean);
  EXPECT_EQ(report.estimates[1].metric, kVar);
  EXPECT_EQ(report.estimates[2].metric, kTvar);
  for (const MetricEstimate& e : report.estimates) {
    EXPECT_TRUE(e.converged) << metric_name(e.metric);
    EXPECT_LE(e.rel_half_width, tuned().target_rel_err) << metric_name(e.metric);
    EXPECT_GT(e.estimate, 0.0) << metric_name(e.metric);
  }
}

TEST(AdaptiveStopping, BackendMatrixStopsBitIdentically) {
  const auto reference =
      core::run_aggregate_analysis(world().portfolio, world().yelt, adaptive_engine());
  for (const core::Backend backend :
       {core::Backend::Threaded, core::Backend::DeviceSim}) {
    const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt,
                                                     adaptive_engine(backend));
    EXPECT_EQ(result.adaptive.trials_run, reference.adaptive.trials_run);
    EXPECT_EQ(result.adaptive.stop_reason, reference.adaptive.stop_reason);
    expect_same_ylt(result.portfolio_ylt, reference.portfolio_ylt);
    expect_same_ylt(result.portfolio_occurrence_ylt, reference.portfolio_occurrence_ylt);
  }
}

TEST(AdaptiveStopping, SourceChunkingCannotMoveTheStoppingTrial) {
  const auto reference =
      core::run_aggregate_analysis(world().portfolio, world().yelt, adaptive_engine());
  // An awkwardly chunked source (123-trial blocks, coprime with the
  // decision grid) must re-chunk onto the same grid and stop identically.
  data::InMemorySource inner(world().yelt);
  data::ReblockedSource awkward(inner, 123);
  const auto result =
      core::run_aggregate_analysis(world().portfolio, awkward, adaptive_engine());
  EXPECT_EQ(result.adaptive.trials_run, reference.adaptive.trials_run);
  expect_same_ylt(result.portfolio_ylt, reference.portfolio_ylt);
}

TEST(AdaptiveStopping, BatchedAndPerContractPathsAgree) {
  // Both entry points stop at the same trial, and the converged prefix is
  // the naive per-contract oracle's, bit for bit.
  const auto a = core::run_aggregate_analysis(world().portfolio, world().yelt,
                                              adaptive_engine());
  const auto b =
      core::run_portfolio_batch(world().portfolio, world().yelt, adaptive_engine());
  EXPECT_EQ(a.adaptive.trials_run, b.adaptive.trials_run);
  expect_same_ylt(a.portfolio_ylt, b.portfolio_ylt);
  const auto per_contract =
      oracle::naive_oracle(world().portfolio, world().yelt, adaptive_engine());
  expect_prefix(a.portfolio_ylt, per_contract.portfolio_ylt);
  expect_prefix(a.portfolio_occurrence_ylt, per_contract.portfolio_occurrence_ylt);
}

TEST(AdaptiveStopping, MinTrialsIsAHardFloor) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive.min_trials = 3'500;  // past the natural stopping point
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_EQ(result.adaptive.trials_run, 3'500u);
  EXPECT_EQ(result.adaptive.stop_reason, StopReason::Converged);
  expect_prefix(result.portfolio_ylt, world().full.portfolio_ylt);
}

TEST(AdaptiveStopping, MinTrialsBeyondTheSourceClampsToAvailable) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive.min_trials = 10 * kTrials;
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_EQ(result.adaptive.trials_run, kTrials);
  expect_same_ylt(result.portfolio_ylt, world().full.portfolio_ylt);
}

TEST(AdaptiveStopping, MaxTrialsCapsAnUnreachableTarget) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive.target_rel_err = 1e-9;  // unreachable
  engine.adaptive.min_trials = 500;
  engine.adaptive.max_trials = 1'200;  // deliberately off the 250-trial grid
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_EQ(result.adaptive.trials_run, 1'200u);
  EXPECT_EQ(result.adaptive.stop_reason, StopReason::Exhausted);
  EXPECT_FALSE(result.adaptive.converged());
  ASSERT_EQ(result.portfolio_ylt.trials(), 1'200u);
  expect_prefix(result.portfolio_ylt, world().full.portfolio_ylt);
}

TEST(AdaptiveStopping, NeverConvergingRunConsumesEverythingBitIdentically) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive.target_rel_err = 1e-9;
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_EQ(result.adaptive.trials_run, kTrials);
  EXPECT_EQ(result.adaptive.stop_reason, StopReason::Exhausted);
  expect_same_ylt(result.portfolio_ylt, world().full.portfolio_ylt);
  expect_same_ylt(result.portfolio_occurrence_ylt, world().full.portfolio_occurrence_ylt);
}

TEST(AdaptiveStopping, OccurrenceMetricsRideTheOepSample) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive.metrics = kMean | kVar | kTvar | kOccVar | kOccTvar;
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  ASSERT_EQ(result.adaptive.estimates.size(), 5u);
  EXPECT_EQ(result.adaptive.estimates[3].metric, kOccVar);
  EXPECT_EQ(result.adaptive.estimates[4].metric, kOccTvar);
  expect_prefix(result.portfolio_ylt, world().full.portfolio_ylt);
  expect_prefix(result.portfolio_occurrence_ylt, world().full.portfolio_occurrence_ylt);
}

TEST(AdaptiveStopping, DisabledAdaptivityIsBitIdenticalToBefore) {
  core::EngineConfig engine = adaptive_engine();
  engine.adaptive = {};  // off — the default
  ASSERT_FALSE(engine.adaptive.enabled());
  const auto result = core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
  EXPECT_FALSE(result.adaptive.enabled);
  EXPECT_EQ(result.adaptive.stop_reason, StopReason::None);
  expect_same_ylt(result.portfolio_ylt, world().full.portfolio_ylt);
  expect_same_ylt(result.portfolio_occurrence_ylt, world().full.portfolio_occurrence_ylt);
}

// ---------------------------------------------------------------------------
// Scenario sweep
// ---------------------------------------------------------------------------

TEST(AdaptiveSweep, AllScenariosStopAtTheBaseBooksTrial) {
  std::vector<scenario::ScenarioSpec> specs(2);
  specs[0].name = "scaled";
  specs[0].loss_scale = 1.25;
  specs[1].name = "identity";

  core::EngineConfig engine = adaptive_engine();
  const auto adaptive_sweep =
      scenario::run_scenario_sweep(world().portfolio, world().yelt, specs, engine);

  const AdaptiveReport& report = adaptive_sweep.base.adaptive;
  ASSERT_TRUE(report.enabled);
  EXPECT_EQ(report.stop_reason, StopReason::Converged);
  EXPECT_GT(report.trials_run, 0u);
  EXPECT_LT(report.trials_run, kTrials);

  core::EngineConfig fixed = adaptive_engine();
  fixed.adaptive = {};
  const auto full_sweep =
      scenario::run_scenario_sweep(world().portfolio, world().yelt, specs, fixed);

  // Convergence is judged on the base book; every scenario truncates to
  // the same stopping trial so the deltas stay trial-aligned.
  EXPECT_EQ(adaptive_sweep.base.portfolio_ylt.trials(), report.trials_run);
  expect_prefix(adaptive_sweep.base.portfolio_ylt, full_sweep.base.portfolio_ylt);
  ASSERT_EQ(adaptive_sweep.scenarios.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(adaptive_sweep.scenarios[s].portfolio_ylt.trials(), report.trials_run);
    expect_prefix(adaptive_sweep.scenarios[s].portfolio_ylt,
                  full_sweep.scenarios[s].portfolio_ylt);
  }

  // The delta report is rebuilt over the stopping prefix.
  ASSERT_EQ(adaptive_sweep.report.rows.size(), specs.size());
}

// ---------------------------------------------------------------------------
// Distributed coordinator
// ---------------------------------------------------------------------------

dist::BlockFetcher fetcher() {
  return [](const dist::BlockSpec& spec) { return world().encoded[spec.id]; };
}

core::EngineResult dist_reference() {
  // The dist runtime normalises workers to the lean aggregate view; the
  // single-process adaptive reference must monitor the same stream.
  core::EngineConfig engine;
  engine.backend = core::Backend::Sequential;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;
  engine.adaptive = tuned();
  return core::run_aggregate_analysis(world().portfolio, world().yelt, engine);
}

class AdaptiveDist : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Workers, AdaptiveDist,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{4},
                                           std::size_t{8}));

TEST_P(AdaptiveDist, StopsAtTheSingleProcessTrialBitIdentically) {
  const auto reference = dist_reference();
  ASSERT_EQ(reference.adaptive.stop_reason, StopReason::Converged);
  ASSERT_LT(reference.adaptive.trials_run, kTrials);

  core::EngineConfig engine;
  engine.adaptive = tuned();
  dist::DistConfig config;
  config.workers = GetParam();  // 0 = in-process fallback
  const auto result = dist::run_distributed_aggregate(world().portfolio, engine,
                                                      world().specs, fetcher(), config);

  ASSERT_TRUE(result.adaptive.enabled);
  EXPECT_EQ(result.adaptive.stop_reason, StopReason::Converged);
  EXPECT_EQ(result.adaptive.trials_run, reference.adaptive.trials_run);
  expect_same_ylt(result.portfolio_ylt, reference.portfolio_ylt);

  // Converging mid-run means some leases were never folded.
  EXPECT_GT(result.stats.blocks_cancelled, 0u);
  EXPECT_EQ(result.stats.blocks_total, world().specs.size());
}

TEST(AdaptiveDistContract, RejectsOccurrenceMetrics) {
  core::EngineConfig engine;
  engine.adaptive = tuned();
  engine.adaptive.metrics |= kOccVar;
  engine.compute_oep = true;
  dist::DistConfig config;
  config.workers = 1;
  EXPECT_THROW(dist::run_distributed_aggregate(world().portfolio, engine, world().specs,
                                               fetcher(), config),
               ContractViolation);
}

TEST(AdaptiveDistContract, RequiresAContiguousPartitionFromTrialZero) {
  core::EngineConfig engine;
  engine.adaptive = tuned();
  dist::DistConfig config;
  config.workers = 1;
  // Drop the first block: the partition no longer starts at trial 0, so
  // the fold frontier could never produce a prefix.
  std::vector<dist::BlockSpec> holey(world().specs.begin() + 1, world().specs.end());
  EXPECT_THROW(dist::run_distributed_aggregate(world().portfolio, engine, holey,
                                               fetcher(), config),
               ContractViolation);
}

TEST(AdaptiveDist, DisabledAdaptivityLeavesTheRuntimeUntouched) {
  core::EngineConfig engine;
  dist::DistConfig config;
  config.workers = 2;
  const auto result = dist::run_distributed_aggregate(world().portfolio, engine,
                                                      world().specs, fetcher(), config);
  EXPECT_FALSE(result.adaptive.enabled);
  EXPECT_EQ(result.stats.blocks_cancelled, 0u);
  ASSERT_EQ(result.portfolio_ylt.trials(), kTrials);
  core::EngineConfig lean;
  lean.backend = core::Backend::Sequential;
  lean.compute_oep = false;
  lean.keep_contract_ylts = false;
  const auto reference = core::run_aggregate_analysis(world().portfolio, world().yelt, lean);
  expect_same_ylt(result.portfolio_ylt, reference.portfolio_ylt);
}

// ---------------------------------------------------------------------------
// MapReduce job
// ---------------------------------------------------------------------------

TEST(AdaptiveMapReduce, InProcessAndDistRuntimesStopIdentically) {
  mapreduce::DfsConfig dfs_config;
  dfs_config.root_dir = "/tmp/riskan-dfs-test-adaptive";
  mapreduce::Dfs dfs(dfs_config);

  mapreduce::AggregateJobConfig job;
  job.trials_per_block = kBlock;  // the decision grid of BOTH runtimes
  job.adaptive = tuned();

  const auto in_process =
      mapreduce::run_aggregate_job(dfs, world().portfolio, world().yelt, job);
  ASSERT_TRUE(in_process.adaptive_report.enabled);
  EXPECT_EQ(in_process.adaptive_report.stop_reason, StopReason::Converged);
  EXPECT_LT(in_process.adaptive_report.trials_run, kTrials);
  EXPECT_EQ(in_process.portfolio_ylt.trials(), in_process.adaptive_report.trials_run);
  EXPECT_EQ(in_process.mr_stats.reduce_groups, in_process.adaptive_report.trials_run);

  mapreduce::AggregateJobConfig dist_job = job;
  dist_job.dist.emplace();
  dist_job.dist->workers = 4;
  const auto dist_run =
      mapreduce::run_aggregate_job(dfs, world().portfolio, world().yelt, dist_job);
  EXPECT_EQ(dist_run.adaptive_report.trials_run, in_process.adaptive_report.trials_run);
  expect_same_ylt(dist_run.portfolio_ylt, in_process.portfolio_ylt);

  // And the adaptive prefix is exactly the head of the fixed-budget job.
  mapreduce::AggregateJobConfig fixed = job;
  fixed.adaptive = {};
  const auto full = mapreduce::run_aggregate_job(dfs, world().portfolio, world().yelt, fixed);
  expect_prefix(in_process.portfolio_ylt, full.portfolio_ylt);
}

TEST(AdaptiveMapReduce, RejectsOccurrenceMetrics) {
  mapreduce::DfsConfig dfs_config;
  dfs_config.root_dir = "/tmp/riskan-dfs-test-adaptive-occ";
  mapreduce::Dfs dfs(dfs_config);
  mapreduce::AggregateJobConfig job;
  job.adaptive = tuned();
  job.adaptive.metrics |= kOccTvar;
  EXPECT_THROW(mapreduce::run_aggregate_job(dfs, world().portfolio, world().yelt, job),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Stratified sampling
// ---------------------------------------------------------------------------

TEST(StratifiedConfigValidation, RejectsNonsense) {
  const auto rejects = [](auto&& mutate) {
    StratifiedConfig config;
    mutate(config);
    EXPECT_THROW(validate_stratified_config(config), ContractViolation);
  };
  rejects([](StratifiedConfig& c) { c.strata = 0; });
  rejects([](StratifiedConfig& c) { c.strata = 5'000; });
  rejects([](StratifiedConfig& c) { c.pilot_per_stratum = 1; });
  rejects([](StratifiedConfig& c) { c.round_trials = 0; });
  rejects([](StratifiedConfig& c) { c.max_trials = 0; });
  rejects([](StratifiedConfig& c) { c.target_rel_err = 1.0; });
  rejects([](StratifiedConfig& c) { c.confidence = 0.5; });
  EXPECT_NO_THROW(validate_stratified_config(StratifiedConfig{}));
}

TEST(StrataPartition, PartitionsTheTrialPopulationExactly) {
  const auto partition = StrataPartition::build(world().yelt, 8);
  ASSERT_GE(partition.size(), 1u);
  ASSERT_LE(partition.size(), 8u);

  // Every trial lands in exactly one stratum: the members are disjoint and
  // their union is the full trial population — no trial double-counted,
  // none dropped.
  std::set<TrialId> seen;
  TrialId total = 0;
  for (std::size_t h = 0; h < partition.size(); ++h) {
    const auto& members = partition.members(h);
    EXPECT_FALSE(members.empty()) << "stratum " << h;
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const TrialId t : members) {
      EXPECT_TRUE(seen.insert(t).second) << "trial " << t << " in two strata";
      const auto occurrences = world().yelt.trial_events(t).size();
      EXPECT_GE(occurrences, partition.min_occurrences(h));
      EXPECT_LE(occurrences, partition.max_occurrences(h));
      EXPECT_EQ(partition.stratum_of(occurrences), h);
    }
    total += static_cast<TrialId>(members.size());
    if (h > 0) {
      EXPECT_GT(partition.min_occurrences(h), partition.max_occurrences(h - 1));
    }
  }
  EXPECT_EQ(total, kTrials);
  EXPECT_EQ(seen.size(), kTrials);
}

TEST(StrataPartition, DegenerateTableCollapsesToOneStratum) {
  // A table whose trials all share one occurrence count cannot split.
  data::YearEventLossTable::Builder builder(64);
  for (TrialId t = 0; t < 64; ++t) {
    builder.begin_trial();
    builder.add(EventId{1}, 100);
    builder.add(EventId{2}, 200);
  }
  const auto flat = builder.finish();
  const auto partition = StrataPartition::build(flat, 8);
  EXPECT_EQ(partition.size(), 1u);
  EXPECT_EQ(partition.members(0).size(), 64u);
}

TEST(NeymanAllocation, ProportionalWhenVarianceIsUnknown) {
  const std::vector<TrialId> population{100, 100, 800};
  const std::vector<TrialId> sampled{0, 0, 0};
  const std::vector<double> stddev{0.0, 0.0, 0.0};
  const auto alloc = neyman_allocation(population, sampled, stddev, 100);
  EXPECT_EQ(alloc, (std::vector<TrialId>{10, 10, 80}));
}

TEST(NeymanAllocation, WeightsByPopulationTimesStddev) {
  const std::vector<TrialId> population{100, 100, 100};
  const std::vector<TrialId> sampled{0, 0, 0};
  const std::vector<double> stddev{1.0, 3.0, 0.0};
  const auto alloc = neyman_allocation(population, sampled, stddev, 40);
  EXPECT_EQ(alloc, (std::vector<TrialId>{10, 30, 0}));
}

TEST(NeymanAllocation, CapsAtTheUnsampledRemainder) {
  const std::vector<TrialId> population{5, 100};
  const std::vector<TrialId> sampled{5, 0};
  const std::vector<double> stddev{10.0, 1.0};
  const auto alloc = neyman_allocation(population, sampled, stddev, 20);
  EXPECT_EQ(alloc[0], 0u);  // exhausted stratum draws nothing
  EXPECT_EQ(alloc[1], 20u);
}

TEST(NeymanAllocation, BudgetBeyondCapacityReturnsCapacity) {
  const std::vector<TrialId> population{10, 20};
  const std::vector<TrialId> sampled{2, 5};
  const std::vector<double> stddev{1.0, 1.0};
  const auto alloc = neyman_allocation(population, sampled, stddev, 1'000);
  EXPECT_EQ(alloc, (std::vector<TrialId>{8, 15}));
}

TEST(NeymanAllocation, ConservesTheBudgetExactly) {
  const std::vector<TrialId> population{37, 211, 998, 54};
  const std::vector<TrialId> sampled{3, 11, 40, 2};
  const std::vector<double> stddev{0.7, 2.3, 9.1, 0.01};
  for (const TrialId budget : {1u, 7u, 100u, 500u}) {
    const auto alloc = neyman_allocation(population, sampled, stddev, budget);
    TrialId total = 0;
    for (std::size_t h = 0; h < alloc.size(); ++h) {
      EXPECT_LE(alloc[h], population[h] - sampled[h]);
      total += alloc[h];
    }
    EXPECT_EQ(total, budget) << "budget " << budget;
  }
}

core::EngineConfig stratified_engine() {
  core::EngineConfig engine;
  engine.backend = core::Backend::Sequential;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;
  return engine;
}

TEST(StratifiedMean, EveryDrawnLossIsBitIdenticalToTheFullRun) {
  StratifiedConfig config;
  config.max_trials = 600;
  const auto result = run_stratified_mean(world().portfolio, world().yelt,
                                          stratified_engine(), config);
  EXPECT_EQ(result.trials_sampled, 600u);
  EXPECT_EQ(result.trials_available, kTrials);
  ASSERT_EQ(result.samples.size(), 600u);
  // The strata decide WHICH trials run, never what a trial is worth: each
  // drawn loss must equal the same trial of the fixed-budget run exactly.
  for (const StratifiedSample& sample : result.samples) {
    ASSERT_LT(sample.trial, kTrials);
    EXPECT_EQ(sample.loss, world().full.portfolio_ylt[sample.trial])
        << "trial " << sample.trial;
  }
}

TEST(StratifiedMean, DrawsWithoutReplacementAndDeterministically) {
  StratifiedConfig config;
  config.max_trials = 500;
  const auto a = run_stratified_mean(world().portfolio, world().yelt,
                                     stratified_engine(), config);
  const auto b = run_stratified_mean(world().portfolio, world().yelt,
                                     stratified_engine(), config);

  std::set<TrialId> drawn;
  for (const StratifiedSample& sample : a.samples) {
    EXPECT_TRUE(drawn.insert(sample.trial).second)
        << "trial " << sample.trial << " drawn twice";
  }

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].trial, b.samples[i].trial);
    EXPECT_EQ(a.samples[i].loss, b.samples[i].loss);
  }
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.half_width, b.half_width);

  TrialId budget = 0;
  for (const StratumSummary& stratum : a.strata) {
    EXPECT_LE(stratum.sampled, stratum.population);
    budget += stratum.sampled;
  }
  EXPECT_EQ(budget, a.trials_sampled);
}

TEST(StratifiedMean, ConvergesToTargetAndCoversTheTruth) {
  StratifiedConfig config;
  config.target_rel_err = 0.05;
  config.round_trials = 512;
  config.max_trials = kTrials;
  const auto result = run_stratified_mean(world().portfolio, world().yelt,
                                          stratified_engine(), config);
  ASSERT_TRUE(result.converged);
  EXPECT_LT(result.trials_sampled, kTrials);
  EXPECT_LE(result.half_width, 0.05 * std::abs(result.mean) + 1e-12);

  // The estimate targets the finite population mean of the table's trials
  // (known exactly); the CI must put the truth well within reach. Seeded,
  // so this is a deterministic assertion, not a flaky coverage check.
  const auto losses = world().full.portfolio_ylt.losses();
  double truth = 0.0;
  for (const Money loss : losses) {
    truth += loss;
  }
  truth /= static_cast<double>(losses.size());
  EXPECT_NEAR(result.mean, truth, 4.0 * result.half_width);
}

TEST(StratifiedMean, SamplingEveryTrialRecoversTheExactMean) {
  StratifiedConfig config;
  config.max_trials = kTrials;  // exhaustive: every stratum fully drawn
  config.round_trials = 2'000;
  const auto result = run_stratified_mean(world().portfolio, world().yelt,
                                          stratified_engine(), config);
  EXPECT_EQ(result.trials_sampled, kTrials);
  const auto losses = world().full.portfolio_ylt.losses();
  double truth = 0.0;
  for (const Money loss : losses) {
    truth += loss;
  }
  truth /= static_cast<double>(losses.size());
  EXPECT_NEAR(result.mean, truth, 1e-6 * std::max(1.0, std::abs(truth)));
  EXPECT_EQ(result.half_width, 0.0);  // FPC: n_h == N_h everywhere
}

}  // namespace
}  // namespace riskan::core::adaptive
