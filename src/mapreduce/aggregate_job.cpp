#include "mapreduce/aggregate_job.hpp"

#include <algorithm>

#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "dist/coordinator.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::mapreduce {

std::size_t stage_yelt(Dfs& dfs, const data::YearEventLossTable& yelt,
                       const AggregateJobConfig& config) {
  RISKAN_REQUIRE(config.trials_per_block > 0, "trials per block must be positive");
  const TrialId trials = yelt.trials();

  std::vector<std::vector<std::byte>> blocks;
  for (TrialId lo = 0; lo < trials; lo += config.trials_per_block) {
    const TrialId hi = std::min<TrialId>(trials, lo + config.trials_per_block);
    ByteWriter writer;
    data::encode_yelt_slice(yelt, lo, hi, writer);
    blocks.push_back(writer.buffer());
  }
  dfs.write_chunked(config.dfs_file, blocks);
  return blocks.size();
}

AggregateJobResult run_aggregate_job(Dfs& dfs, const finance::Portfolio& portfolio,
                                     const data::YearEventLossTable& yelt,
                                     const AggregateJobConfig& config) {
  obs::validate_obs_config(config.obs);
  AggregateJobResult result;
  // One observability window covers the whole job; map tasks and dist
  // workers run with obs cleared so nothing nests.
  obs::RunObsScope obs_scope(config.obs);

  obs::Timer stage_watch("mr.stage_in");
  if (!dfs.exists(config.dfs_file)) {
    stage_yelt(dfs, yelt, config);
  }
  result.stage_in_seconds = stage_watch.stop();
  result.blocks = dfs.block_count(config.dfs_file);
  result.dfs_bytes = dfs.physical_bytes();

  const TrialId total_trials = yelt.trials();
  const TrialId per_block = config.trials_per_block;

  core::adaptive::validate_adaptive_config(config.adaptive);
  if (config.adaptive.enabled()) {
    RISKAN_REQUIRE(
        (config.adaptive.metrics & core::adaptive::kOccurrenceMetrics) == 0,
        "adaptive MapReduce jobs monitor aggregate metrics only "
        "(map tasks emit the aggregate view, not the OEP sample)");
  }

  if (config.dist.has_value()) {
    // The job rides the multi-process transport: each DFS block becomes a
    // leased work unit for a forked worker, and the per-trial reduce is
    // the coordinator's assignment into the output YLT. Same blocks, same
    // trial bases, same Sequential kernel — bit-identical to the
    // in-process runtime below, faults and retries included. The adaptive
    // config rides along whole: the coordinator folds completed blocks at
    // a trial-order frontier and cancels leases on convergence, stopping
    // at the same trial as the in-process fold below.
    core::EngineConfig engine;
    engine.seed = config.seed;
    engine.secondary_uncertainty = config.secondary_uncertainty;
    engine.adaptive = config.adaptive;

    std::vector<dist::BlockSpec> specs;
    specs.reserve(result.blocks);
    for (std::size_t i = 0; i < result.blocks; ++i) {
      const TrialId lo = static_cast<TrialId>(i) * per_block;
      const TrialId hi = std::min<TrialId>(total_trials, lo + per_block);
      specs.push_back({i, lo, hi - lo});
    }

    obs::Timer job_watch("mr.job");
    auto dist_result = dist::run_distributed_aggregate(
        portfolio, engine, specs,
        [&](const dist::BlockSpec& spec) {
          return dfs.read_block(config.dfs_file, static_cast<std::size_t>(spec.id));
        },
        *config.dist);
    result.job_seconds = job_watch.stop();

    const TrialId produced = dist_result.portfolio_ylt.trials();
    result.portfolio_ylt = std::move(dist_result.portfolio_ylt);
    result.portfolio_ylt.set_label("portfolio-mapreduce");
    result.dist_stats = dist_result.stats;
    result.adaptive_report = dist_result.adaptive;
    // Mirror the runtime's ledger into the MapReduce view: emissions and
    // groups are per-trial as in-process (adaptive runs count the folded
    // prefix); the shuffle edge is the result pipes; the retry counters
    // are the dist layer's recovery telemetry.
    result.mr_stats.map_emissions = produced;
    result.mr_stats.shuffle_pairs = produced;
    result.mr_stats.shuffle_bytes = dist_result.stats.result_bytes_received;
    result.mr_stats.reduce_groups = produced;
    result.mr_stats.blocks_retried = dist_result.stats.blocks_retried;
    result.mr_stats.bytes_resent = dist_result.stats.bytes_resent;
    result.mr_stats.leases_expired = dist_result.stats.leases_expired;
    result.mr_stats.seconds = dist_result.seconds;
    publish_mapreduce_stats(result.mr_stats);
    result.obs_report = obs_scope.finish();
    return result;
  }

  if (config.adaptive.enabled()) {
    // Adaptive in-process job: map tasks run sequentially in split order —
    // each split IS one decision block (trials_per_block is the grid;
    // adaptive.block_trials is ignored) — folding each output into the
    // controller and stopping the schedule once it converges. The shuffle
    // collapses to per-trial assignment (splits partition the trial
    // space), mirroring the dist coordinator's reduce; its trial-order
    // fold frontier makes a dist run of the same job stop at the
    // identical trial.
    obs::Timer adaptive_watch("mr.job");
    core::adaptive::ConvergenceController controller(config.adaptive, total_trials);
    data::YearLossTable ylt(total_trials, "portfolio-mapreduce");
    for (std::size_t split = 0; split < result.blocks && !controller.should_stop();
         ++split) {
      const auto bytes = dfs.read_block(config.dfs_file, split);
      data::EncodedBlockSource source(bytes);

      core::EngineConfig engine;
      engine.backend = core::Backend::Sequential;
      engine.seed = config.seed;
      engine.secondary_uncertainty = config.secondary_uncertainty;
      engine.compute_oep = false;
      engine.keep_contract_ylts = false;
      engine.trial_base = static_cast<TrialId>(split) * per_block;

      const auto block_result = core::run_aggregate_analysis(portfolio, source, engine);
      const auto losses = block_result.portfolio_ylt.losses();
      std::copy(losses.begin(), losses.end(),
                ylt.mutable_losses().begin() + engine.trial_base);
      controller.fold(losses, {});
      result.mr_stats.map_emissions += losses.size();
    }
    ylt.truncate(controller.trials_folded());
    result.portfolio_ylt = std::move(ylt);
    result.adaptive_report = controller.report();
    result.mr_stats.shuffle_pairs = result.mr_stats.map_emissions;
    result.mr_stats.reduce_groups = controller.trials_folded();
    result.job_seconds = adaptive_watch.stop();
    result.mr_stats.seconds = result.job_seconds;
    publish_mapreduce_stats(result.mr_stats);
    result.obs_report = obs_scope.finish();
    return result;
  }

  obs::Timer job_watch("mr.job");
  MapReduceConfig mr_config;
  mr_config.reducers = config.reducers;
  mr_config.pool = config.pool;

  const auto reduced = run_mapreduce<TrialId, Money>(
      result.blocks,
      [&](std::size_t split, const std::function<void(const TrialId&, const Money&)>& emit) {
        // Map task: wrap the DFS block in the shared block-slicing adapter
        // (data::EncodedBlockSource decodes it through the same data plane
        // every entry point uses) and run the engine with the block's
        // global trial base.
        const auto bytes = dfs.read_block(config.dfs_file, split);
        data::EncodedBlockSource source(bytes);

        core::EngineConfig engine;
        engine.backend = core::Backend::Sequential;
        engine.seed = config.seed;
        engine.secondary_uncertainty = config.secondary_uncertainty;
        engine.compute_oep = false;
        engine.keep_contract_ylts = false;
        engine.trial_base = static_cast<TrialId>(split) * per_block;
        // The decoded slice is task-local; the ephemeral source makes the
        // engine resolve through a run-local cache automatically, still
        // sharing the pre-join across the contracts' layers without
        // parking dead keys in the process-wide cache.
        const auto block_result = core::run_aggregate_analysis(portfolio, source, engine);
        const auto losses = block_result.portfolio_ylt.losses();
        for (TrialId t = 0; t < source.trials(); ++t) {
          emit(engine.trial_base + t, losses[t]);
        }
      },
      [](const Money& a, const Money& b) { return a + b; }, mr_config, &result.mr_stats);
  result.job_seconds = job_watch.stop();

  data::YearLossTable ylt(total_trials, "portfolio-mapreduce");
  for (const auto& [trial, loss] : reduced) {
    RISKAN_REQUIRE(trial < total_trials, "reduced trial id out of range");
    ylt[trial] = loss;
  }
  result.portfolio_ylt = std::move(ylt);
  result.obs_report = obs_scope.finish();
  return result;
}

}  // namespace riskan::mapreduce
