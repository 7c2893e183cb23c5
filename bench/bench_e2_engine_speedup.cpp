// E2 — aggregate-analysis engine speedup.
//
// Paper claim: "Methods for accumulating large shared memory includes the
// use of many-core GPUs for simulating portfolio analysis [7] which are 15x
// times faster than the sequential counterpart."
//
// We run the identical aggregate analysis on both backends and measure:
//   sequential — the baseline of the paper's 15x;
//   threaded   — host shared-memory parallelism on the shared pool.
// The paper's figure is a GPU result; riskan has no GPU backend and no
// model stands in for one. The verdict is the measured
// threaded speedup, read against the hardware thread count recorded next
// to it (docs/benchmarks.md keeps the retired device model's numbers as a
// labelled historical result).
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"

using namespace riskan;

int main() {
  print_banner(std::cout, "E2: engine speedup (paper's '15x' claim)");

  const TrialId trials = bench::scaled_trials(50'000);
  auto workload = bench::make_workload(/*contracts=*/16, /*elt_rows=*/1'000, trials);

  std::cout << "workload: " << workload.portfolio.size() << " contracts x "
            << trials << " trials, "
            << format_count(static_cast<double>(workload.yelt.entries()))
            << " YELT occurrences, secondary uncertainty ON\n\n";

  core::EngineConfig config;
  config.secondary_uncertainty = true;
  config.compute_oep = false;
  config.keep_contract_ylts = false;

  config.backend = core::Backend::Sequential;
  const auto seq = core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);

  config.backend = core::Backend::Threaded;
  const auto thr = core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);

  // Sanity: identical results across backends.
  for (TrialId t = 0; t < trials; ++t) {
    if (seq.portfolio_ylt[t] != thr.portfolio_ylt[t]) {
      std::cerr << "BACKEND MISMATCH at trial " << t << " — results are not comparable\n";
      return 1;
    }
  }

  const double occ_per_s_seq =
      static_cast<double>(seq.occurrences_processed) / seq.seconds;

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const double thr_speedup = seq.seconds / thr.seconds;
  const double spin = bench::spin_efficiency();

  ReportTable table({"backend", "time", "occurrences/s", "speedup vs sequential"});
  table.add_row({"sequential (1 core)", format_seconds(seq.seconds),
                 format_rate(occ_per_s_seq), "1.00x"});
  table.add_row({"threaded (shared memory)", format_seconds(thr.seconds),
                 format_rate(static_cast<double>(thr.occurrences_processed) / thr.seconds),
                 format_fixed(thr_speedup, 2) + "x"});
  bench::emit("e2_speedup", table);

  std::cout << "\n[E2 verdict] measured threaded speedup "
            << format_fixed(thr_speedup, 2) << "x over sequential on " << hw_threads
            << " hardware thread(s); backends agree bit-exactly, so the comparison is "
               "apples to apples. The paper's 15x is a many-core GPU figure; riskan has "
               "no GPU backend, so that figure is cited, not reproduced.\n";
  std::cout << "host spin-test parallel efficiency on " << hw_threads
            << " thread(s): " << format_fixed(spin, 2) << "\n";

  // ---- Resolver: cold vs warm cache on a multi-layer threaded workload.
  // Secondary uncertainty off isolates the lookup path (with it on, beta
  // sampling dominates the kernel); the multi-layer book is where one
  // compact resolution per contract amortises across layers. The cold run
  // pays the direct ELT→compact-CSR build, the warm run gathers from the
  // cached columns.
  print_banner(std::cout, "E2b: ELT-lookup resolver, cold vs warm cache");

  const TrialId ab_trials = bench::scaled_trials(50'000);
  auto ab = bench::make_workload(/*contracts=*/16, /*elt_rows=*/1'000, ab_trials,
                                 /*events_per_year=*/10.0, /*catalog_events=*/10'000,
                                 /*layers_per_contract=*/4);
  std::cout << "workload: " << ab.portfolio.size() << " contracts x "
            << ab.portfolio.layer_count() << " layers x " << ab_trials << " trials, "
            << format_count(static_cast<double>(ab.yelt.entries()))
            << " YELT occurrences, secondary uncertainty OFF\n\n";

  core::EngineConfig ab_config;
  ab_config.backend = core::Backend::Threaded;
  ab_config.secondary_uncertainty = false;
  ab_config.compute_oep = false;
  ab_config.keep_contract_ylts = false;

  data::ResolverCache ab_cache;
  ab_config.resolver_cache = &ab_cache;

  const auto cold = core::run_aggregate_analysis(ab.portfolio, ab.yelt, ab_config);
  const auto warm = core::run_aggregate_analysis(ab.portfolio, ab.yelt, ab_config);

  for (TrialId t = 0; t < ab_trials; ++t) {
    if (cold.portfolio_ylt[t] != warm.portfolio_ylt[t]) {
      std::cerr << "RESOLVER MISMATCH at trial " << t
                << " — YLTs are not bit-identical\n";
      return 1;
    }
  }

  const auto throughput = [](const core::EngineResult& r) {
    return static_cast<double>(r.occurrences_processed) / r.seconds;
  };

  ReportTable ab_table({"resolver cache", "time", "occurrences/s", "build time"});
  ab_table.add_row({"cold (builds compact columns)", format_seconds(cold.seconds),
                    format_rate(throughput(cold)), format_seconds(cold.resolve_seconds)});
  ab_table.add_row({"warm", format_seconds(warm.seconds), format_rate(throughput(warm)),
                    format_seconds(warm.resolve_seconds)});
  bench::emit("e2b_resolver", ab_table);

  std::cout << "\n[E2b verdict] " << format_count(static_cast<double>(warm.elt_lookups))
            << " ELT rows gathered per run from the pre-joined compact columns; YLTs "
            << "bit-identical across the cold and warm runs\n";

  // Machine-readable record for the perf trajectory.
  bench::JsonReport json;
  json.set("experiment", std::string("e2_engine_speedup"));
  json.set("trials", static_cast<std::uint64_t>(trials));
  json.set("yelt_entries", workload.yelt.entries());
  json.set("seq_seconds", seq.seconds);
  json.set("thr_seconds", thr.seconds);
  json.set("thr_speedup_vs_seq", thr_speedup);
  json.set("hardware_threads", static_cast<std::uint64_t>(hw_threads));
  json.set("host_spin_efficiency", spin);
  json.set("ablation_trials", static_cast<std::uint64_t>(ab_trials));
  json.set("ablation_layers", static_cast<std::uint64_t>(ab.portfolio.layer_count()));
  json.set("resolver_cold_seconds", cold.seconds);
  json.set("resolver_warm_seconds", warm.seconds);
  json.set("resolver_build_seconds", cold.resolve_seconds);
  json.set("resolver_warm_occurrences_per_s", throughput(warm));
  const std::string json_path = bench::artifact_path("BENCH_e2.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
