// E2 — aggregate-analysis engine speedup.
//
// Paper claim: "Methods for accumulating large shared memory includes the
// use of many-core GPUs for simulating portfolio analysis [7] which are 15x
// times faster than the sequential counterpart."
//
// We run the identical aggregate analysis on the three backends:
//   sequential   — the baseline of the paper's 15x;
//   threaded     — host shared-memory parallelism (measured);
//   device-sim   — the GPU execution model; results are bit-identical and
//                  metered, and the calibrated Fermi-class performance
//                  model converts the counters into a modeled device time.
// Honesty note: this container has no GPU and may have a single core, so
// the *measured* columns show what this host can do, while the *modeled*
// column shows what the counted work maps to on the paper's hardware
// class. EXPERIMENTS.md discusses both.
#include <iostream>

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

  config.backend = core::Backend::DeviceSim;
  core::DeviceRunInfo device_info;
  config.device_info = &device_info;
  const auto dev = core::run_aggregate_analysis(workload.portfolio, workload.yelt, config);
  config.device_info = nullptr;

  // Sanity: identical results across backends.
  for (TrialId t = 0; t < trials; ++t) {
    if (seq.portfolio_ylt[t] != thr.portfolio_ylt[t] ||
        seq.portfolio_ylt[t] != dev.portfolio_ylt[t]) {
      std::cerr << "BACKEND MISMATCH at trial " << t << " — results are not comparable\n";
      return 1;
    }
  }

  const double occ_per_s_seq =
      static_cast<double>(seq.occurrences_processed) / seq.seconds;

  ReportTable table({"backend", "time", "occurrences/s", "speedup vs sequential",
                     "basis"});
  table.add_row({"sequential (1 core)", format_seconds(seq.seconds),
                 format_rate(occ_per_s_seq), "1.00x", "measured"});
  table.add_row({"threaded (shared memory)", format_seconds(thr.seconds),
                 format_rate(static_cast<double>(thr.occurrences_processed) / thr.seconds),
                 format_fixed(seq.seconds / thr.seconds, 2) + "x", "measured"});
  table.add_row({"device-sim (host exec)", format_seconds(dev.seconds),
                 format_rate(static_cast<double>(dev.occurrences_processed) / dev.seconds),
                 format_fixed(seq.seconds / dev.seconds, 2) + "x", "measured"});
  table.add_row({"device model (Fermi-class)", format_seconds(device_info.modeled_seconds),
                 format_rate(static_cast<double>(dev.occurrences_processed) /
                             device_info.modeled_seconds),
                 format_fixed(seq.seconds / device_info.modeled_seconds, 2) + "x",
                 "modeled from metered kernel traffic"});
  bench::emit("e2_speedup", table);

  std::cout << "\ndevice kernel accounting: " << device_info.launches << " launches, "
            << device_info.elt_chunks << " ELT constant-memory chunks, "
            << device_info.shared_staged_blocks << " blocks staged in shared memory, "
            << device_info.shared_spill_blocks << " spilled to global\n"
            << "traffic: global "
            << format_bytes(static_cast<double>(device_info.counters.global_read_bytes +
                                                device_info.counters.global_write_bytes))
            << ", shared "
            << format_bytes(static_cast<double>(device_info.counters.shared_read_bytes +
                                                device_info.counters.shared_write_bytes))
            << ", constant "
            << format_bytes(static_cast<double>(device_info.counters.const_read_bytes))
            << ", " << format_count(static_cast<double>(device_info.counters.flops))
            << " FLOPs\n";

  std::cout << "\n[E2 verdict] paper reports 15x GPU vs sequential; the modeled "
               "many-core speedup above is the reproduction of that shape "
               "(exact factor depends on host CPU vs 2012 baseline). Backends "
               "agree bit-exactly, so the comparison is apples to apples.\n";

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
  json.set("device_host_seconds", dev.seconds);
  json.set("device_modeled_seconds", device_info.modeled_seconds);
  json.set("thr_speedup_vs_seq", seq.seconds / thr.seconds);
  json.set("modeled_speedup_vs_seq", seq.seconds / device_info.modeled_seconds);
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
