// E10 — portfolio-batched stage 2 across book sizes.
//
// The engine's one lowering (core::run_portfolio_batch, behind
// run_aggregate_analysis) makes one streamed pass per trial chunk serving
// every contract's layer stack from hit-compacted resolutions, so a
// C-contract book costs one YELT walk rather than C x layers of them.
//
// This bench sweeps book size on the full portfolio-roll-up workload
// (per-contract YLTs and OEP kept, the examples/portfolio_analysis
// configuration; secondary uncertainty off isolates the streaming path —
// with it on, beta sampling dominates) and records the batched wall-clock
// per book size, plus the DeviceSim modeled time and launch count of the
// 16-contract book. Threaded outputs are verified bit-identical to
// Sequential before timing is reported.
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "data/resolved_yelt.hpp"
#include "obs/obs.hpp"

using namespace riskan;

namespace {

/// Best-of-N wall-clock for one engine configuration (first run warms the
/// resolver cache and the page cache; timing noise on shared CI hosts makes
/// single-shot numbers unusable).
template <typename Run>
double best_seconds(int reps, const Run& run) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    obs::Timer watch("bench.rep");
    run();
    const double s = watch.stop();
    if (best < 0.0 || s < best) {
      best = s;
    }
  }
  return best;
}

bool same_outputs(const core::EngineResult& a, const core::EngineResult& b, TrialId trials) {
  for (TrialId t = 0; t < trials; ++t) {
    if (a.portfolio_ylt[t] != b.portfolio_ylt[t] ||
        a.portfolio_occurrence_ylt[t] != b.portfolio_occurrence_ylt[t] ||
        a.reinstatement_premium[t] != b.reinstatement_premium[t]) {
      return false;
    }
    for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
      if (a.contract_ylts[c][t] != b.contract_ylts[c][t]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout, "E10: portfolio-batched stage 2 across book sizes");

  const TrialId trials = bench::scaled_trials(50'000);
  const int reps = bench::quick_mode() ? 2 : 3;
  const std::size_t book_sizes[] = {1, 4, 16, 64};

  core::EngineConfig config;
  config.backend = core::Backend::Threaded;
  config.secondary_uncertainty = false;
  config.compute_oep = true;       // the full roll-up outputs
  config.keep_contract_ylts = true;

  ReportTable table({"contracts", "layers", "batched", "occurrences/s"});
  bench::JsonReport json;
  json.set("experiment", std::string("e10_portfolio_batch"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("secondary_uncertainty", std::string("off"));
  json.set("compute_oep", std::string("on"));

  for (const std::size_t contracts : book_sizes) {
    auto w = bench::make_workload(contracts, /*elt_rows=*/1'000, trials,
                                  /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                  /*layers_per_contract=*/4);

    data::ResolverCache cache;
    config.resolver_cache = &cache;

    // Correctness gate first (also warms the resolver cache).
    core::EngineConfig sequential = config;
    sequential.backend = core::Backend::Sequential;
    const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, sequential);
    const auto result = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    if (!same_outputs(reference, result, trials)) {
      std::cerr << "BACKEND MISMATCH on the " << contracts
                << "-contract book — outputs are not bit-identical\n";
      return 1;
    }

    const double batched_s = best_seconds(reps, [&] {
      core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    });
    const double occ_per_s = static_cast<double>(result.occurrences_processed) / batched_s;
    table.add_row({std::to_string(contracts), std::to_string(w.portfolio.layer_count()),
                   format_seconds(batched_s), format_rate(occ_per_s)});
    json.set("contracts_" + std::to_string(contracts) + "_batched_seconds", batched_s);

    if (contracts == 16) {
      // DeviceSim on the headline book: one launch sequence for the whole
      // book, with the modeled device time as the scale-free metric.
      core::EngineConfig dev = config;
      dev.backend = core::Backend::DeviceSim;
      core::DeviceRunInfo info;
      dev.device_info = &info;
      (void)core::run_aggregate_analysis(w.portfolio, w.yelt, dev);
      std::cout << "\nDeviceSim (16 contracts): " << info.launches << " launches / "
                << format_seconds(info.modeled_seconds) << " modeled\n\n";
      json.set("device_batched_modeled_seconds", info.modeled_seconds);
      json.set("device_batched_launches", static_cast<std::uint64_t>(info.launches));
    }
  }
  bench::emit("e10_portfolio_batch", table);

  std::cout << "\n[E10 verdict] one streamed pass per book; Threaded outputs "
               "bit-identical to Sequential at every book size\n";

  const std::string json_path = bench::artifact_path("BENCH_e10.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
