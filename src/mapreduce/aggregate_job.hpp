// Aggregate analysis as a MapReduce job over the distributed file space —
// the paper's alternative stage-2 architecture (experiment E6).
//
// The YELT is split into trial-range blocks stored in the DFS; each block
// is one work unit of the dist coordinator (src/dist/coordinator.hpp),
// fetched from the DFS when it is scheduled. The map is the same execution
// plan on the same trial kernel the in-memory engine uses (Sequential,
// trial_base = the block's first global trial so secondary-uncertainty
// streams line up) and yields one portfolio loss per trial. The reduce is
// the coordinator's per-trial assignment into the output YLT — the
// per-trial sum is done inside the map, which is why this workload
// MapReduces well. The output YLT is bit-identical to the in-memory
// engine's for any block size and worker count (integration tests enforce
// this).
#pragma once

#include <cstdint>
#include <memory>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "dist/config.hpp"
#include "finance/contract.hpp"
#include "mapreduce/dfs.hpp"

namespace riskan::mapreduce {

struct AggregateJobConfig {
  /// Trials per DFS block / work unit.
  TrialId trials_per_block = 1'000;
  std::uint64_t seed = 2012;
  bool secondary_uncertainty = true;
  std::string dfs_file = "yelt";
  /// The distribution runtime the blocks run on. workers = 0 (the default)
  /// runs them in this process on the shared thread pool; workers > 0
  /// leases them to forked worker processes with retry/re-queue and
  /// straggler re-execution. Bit-identical either way, faults included.
  dist::DistConfig dist = [] {
    dist::DistConfig in_process;
    in_process.workers = 0;
    return in_process;
  }();
  /// Convergence-adaptive stopping (core/adaptive): with target_rel_err >
  /// 0 the job folds block outputs in trial order and stops scheduling
  /// blocks once the monitored metrics' CIs close, truncating the output
  /// YLT to the stopping trial. The decision grid is the DFS block
  /// partition itself — adaptive.block_trials is ignored; trials_per_block
  /// is the grid — so runs with any worker count, 0 included, stop at the
  /// same trial. Occurrence metrics are rejected (blocks return the
  /// aggregate view only).
  core::adaptive::AdaptiveConfig adaptive;
  /// End-of-run observability (metrics report / chrome trace) for the whole
  /// job — stage-in and the coordinator run ride one window. Blocks and
  /// dist workers never open nested windows of their own.
  obs::ObsConfig obs;
};

struct AggregateJobResult {
  /// Truncated to the stopping trial on an adaptive run.
  data::YearLossTable portfolio_ylt;
  /// Convergence report of an adaptive run (enabled = false otherwise).
  core::adaptive::AdaptiveReport adaptive_report;
  /// The runtime's ledger: blocks run in process, result bytes (the
  /// shuffle edge), retries and lease expiries.
  dist::DistStats dist_stats;
  std::uint64_t dfs_bytes = 0;
  std::size_t blocks = 0;
  double stage_in_seconds = 0.0;  ///< splitting + DFS write
  double job_seconds = 0.0;       ///< the coordinator run
  /// End-of-run observability report when AggregateJobConfig::obs asked.
  std::shared_ptr<const obs::ObsReport> obs_report;
};

/// Stages `yelt` into `dfs` as trial-range blocks.
/// Returns the number of blocks written.
std::size_t stage_yelt(Dfs& dfs, const data::YearEventLossTable& yelt,
                       const AggregateJobConfig& config);

/// Runs the full job: stage-in (if not already staged), then one
/// coordinator run over the staged blocks. A file already staged under
/// dfs_file must have been staged at the same trials_per_block
/// (ContractViolation otherwise).
AggregateJobResult run_aggregate_job(Dfs& dfs, const finance::Portfolio& portfolio,
                                     const data::YearEventLossTable& yelt,
                                     const AggregateJobConfig& config = {});

}  // namespace riskan::mapreduce
