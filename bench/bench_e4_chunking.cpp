// E4 — chunking ablation.
//
// Paper claim: "The management of large data in memory employs the notion
// of chunking, which is utilising shared and constant memory as much as
// possible."
//
// The paper's chunking targets GPU shared and constant memory; riskan has
// no GPU backend, so this bench sweeps the host's chunking knob instead:
// the trial-chunk grain of the threaded engine (EngineConfig::trial_grain).
// Tiny grains pay scheduling overhead, huge grains lose load balance
// (visible only with >1 core, but the sweep also shows cache effects).
#include <iostream>
#include <optional>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E4: chunking (threaded trial grain)");

  const TrialId trials = bench::scaled_trials(30'000);
  auto workload = bench::make_workload(/*contracts=*/8, /*elt_rows=*/2'000, trials);

  std::cout << "workload: 8 contracts x " << trials << " trials, 2k-row ELTs\n";

  ReportTable table({"trials/chunk", "wall-clock", "occurrences/s"});
  std::optional<data::YearLossTable> reference;
  for (const std::size_t grain : {8UL, 64UL, 512UL, 4096UL, 32768UL}) {
    core::EngineConfig config;
    config.backend = core::Backend::Threaded;
    config.trial_grain = grain;
    config.compute_oep = false;
    config.keep_contract_ylts = false;
    const auto result = core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);
    if (!reference) {
      reference = result.portfolio_ylt;
    }
    for (TrialId t = 0; t < trials; ++t) {
      if (result.portfolio_ylt[t] != (*reference)[t]) {
        std::cerr << "GRAIN MISMATCH at grain " << grain << ", trial " << t << "\n";
        return 1;
      }
    }
    table.add_row({std::to_string(grain), format_seconds(result.seconds),
                   format_rate(static_cast<double>(result.occurrences_processed) /
                               result.seconds)});
  }
  std::cout << "\nhost: trial-grain sweep (threaded engine)\n";
  bench::emit("e4_host_grain", table);

  std::cout << "\n[E4 verdict] outputs are bit-identical at every grain (the "
               "determinism contract); the sweep shows where scheduling overhead and load "
               "balance trade off on this host.\n";
  return 0;
}
