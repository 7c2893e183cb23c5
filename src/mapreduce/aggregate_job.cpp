#include "mapreduce/aggregate_job.hpp"

#include <algorithm>

#include "data/serialize.hpp"
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
  RISKAN_REQUIRE(config.trials_per_block > 0, "trials per block must be positive");
  AggregateJobResult result;
  // One observability window covers the whole job; the coordinator's
  // worker engine runs with obs cleared so nothing nests.
  obs::RunObsScope obs_scope(config.obs);

  obs::Timer stage_watch("mr.stage_in");
  if (!dfs.exists(config.dfs_file)) {
    stage_yelt(dfs, yelt, config);
  }
  result.stage_in_seconds = stage_watch.stop();
  result.blocks = dfs.block_count(config.dfs_file);
  result.dfs_bytes = dfs.physical_bytes();

  // Trial bases come from the current trials_per_block, so a file staged
  // at another block size would map blocks onto the wrong trials. Equal
  // block counts with different sizes are caught by the coordinator's
  // per-block trial-count checks.
  const TrialId total_trials = yelt.trials();
  const TrialId per_block = config.trials_per_block;
  RISKAN_REQUIRE(result.blocks == (total_trials + per_block - 1) / per_block,
                 "DFS file '" + config.dfs_file +
                     "' was staged with a different block size than trials_per_block");

  // Each DFS block is one work unit at its global trial base; the reduce
  // is the coordinator's per-trial assignment into the output YLT, and an
  // adaptive config folds blocks at its trial-order frontier (the block
  // partition is the decision grid).
  std::vector<dist::BlockSpec> specs;
  specs.reserve(result.blocks);
  for (std::size_t i = 0; i < result.blocks; ++i) {
    const TrialId lo = static_cast<TrialId>(i) * per_block;
    const TrialId hi = std::min<TrialId>(total_trials, lo + per_block);
    specs.push_back({i, lo, hi - lo});
  }

  core::EngineConfig engine;
  engine.seed = config.seed;
  engine.secondary_uncertainty = config.secondary_uncertainty;
  engine.adaptive = config.adaptive;

  auto dist_result = dist::run_distributed_aggregate(
      portfolio, engine, specs,
      [&](const dist::BlockSpec& spec) {
        return dfs.read_block(config.dfs_file, static_cast<std::size_t>(spec.id));
      },
      config.dist);
  result.job_seconds = dist_result.seconds;

  result.portfolio_ylt = std::move(dist_result.portfolio_ylt);
  result.portfolio_ylt.set_label("portfolio-mapreduce");
  result.dist_stats = dist_result.stats;
  result.adaptive_report = dist_result.adaptive;
  result.obs_report = obs_scope.finish();
  return result;
}

}  // namespace riskan::mapreduce
