// E6 — MapReduce over a distributed file space.
//
// Paper: "Another direction to progress whereby large distributed file
// space is accumulated will include relying on MapReduce or Hadoop style
// computations on the cloud."
//
// Aggregate analysis as a MapReduce job over DFS blocks, run in process on
// the dist coordinator and swept over block size (split granularity) and
// replication factor, plus one run on forked workers. The shuffle column is
// the result bytes crossing the map -> reduce edge (worker pipes; zero in
// process): one loss per trial, because the per-trial sum happens inside
// each map. The in-memory engine is the baseline. Exits 1 unless every
// job's YLT is bit-identical to the engine's.
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "mapreduce/aggregate_job.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E6: MapReduce / distributed file space");

  const TrialId trials = bench::scaled_trials(40'000);
  auto workload = bench::make_workload(/*contracts=*/8, /*elt_rows=*/800, trials);

  core::EngineConfig engine;
  engine.backend = core::Backend::Threaded;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;
  const auto in_memory =
      core::run_aggregate_analysis(workload.portfolio, workload.yelt, engine);

  std::cout << "workload: 8 contracts x " << trials << " trials; in-memory baseline "
            << format_seconds(in_memory.seconds) << "\n\n";

  // Three split granularities in process (the job's default runtime), then
  // the middle one on forked workers, whose results cross a real map ->
  // reduce edge (pipes) — the in-process rows have none to measure.
  struct Row {
    TrialId per_block;
    std::size_t workers;
  };
  ReportTable table({"trials/block", "workers", "blocks", "in-process", "stage-in",
                     "job time", "shuffle bytes", "DFS bytes", "vs in-memory"});
  for (const Row row : {Row{trials / 4, 0}, Row{trials / 16, 0}, Row{trials / 64, 0},
                        Row{trials / 16, 2}}) {
    mapreduce::DfsConfig dfs_config;
    dfs_config.root_dir = "/tmp/riskan-dfs-bench-" + std::to_string(row.per_block) + "-w" +
                          std::to_string(row.workers);
    mapreduce::Dfs dfs(dfs_config);

    mapreduce::AggregateJobConfig job;
    job.trials_per_block = row.per_block;
    job.dist.workers = row.workers;
    const auto result =
        mapreduce::run_aggregate_job(dfs, workload.portfolio, workload.yelt, job);

    // Verify against the in-memory result before reporting.
    for (TrialId t = 0; t < trials; ++t) {
      if (result.portfolio_ylt[t] != in_memory.portfolio_ylt[t]) {
        std::cerr << "MISMATCH vs in-memory engine at trial " << t << "\n";
        return 1;
      }
    }

    table.add_row({format_count(static_cast<double>(row.per_block)),
                   std::to_string(row.workers), std::to_string(result.blocks),
                   std::to_string(result.dist_stats.blocks_run_in_process),
                   format_seconds(result.stage_in_seconds),
                   format_seconds(result.job_seconds),
                   format_bytes(static_cast<double>(result.dist_stats.result_bytes_received)),
                   format_bytes(static_cast<double>(result.dfs_bytes)),
                   format_fixed(result.job_seconds / in_memory.seconds, 2) + "x"});
  }
  bench::emit("e6_mapreduce", table);

  // Replication ablation: physical storage amplification.
  {
    ReportTable repl({"replication", "logical bytes", "physical bytes"});
    for (const int r : {1, 2, 3}) {
      mapreduce::DfsConfig dfs_config;
      dfs_config.root_dir = "/tmp/riskan-dfs-repl-" + std::to_string(r);
      dfs_config.replication = r;
      mapreduce::Dfs dfs(dfs_config);
      mapreduce::AggregateJobConfig job;
      job.trials_per_block = trials / 8;
      (void)mapreduce::stage_yelt(dfs, workload.yelt, job);
      repl.add_row({std::to_string(r),
                    format_bytes(static_cast<double>(dfs.logical_bytes())),
                    format_bytes(static_cast<double>(dfs.physical_bytes()))});
    }
    std::cout << "\nDFS replication ablation\n";
    bench::emit("e6_replication", repl);
  }

  std::cout << "\n[E6 verdict] the job reproduces the in-memory YLT bit-exactly "
               "from file-space blocks, in process and on forked workers; the "
               "shuffle is one loss per trial (the per-trial sum happens inside "
               "each map), which is what makes this stage 'MapReduce well' as "
               "the paper suggests. Staging the file space is paid once per "
               "file (later jobs reuse it) — the ad-hoc-analytics trade the "
               "paper assigns to this architecture.\n";
  return 0;
}
