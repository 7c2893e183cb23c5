// E16 — vectorized trial kernel vs the scalar kernel.
//
// The batched engine's hot loop is per-occurrence arithmetic over gathered
// ELT means: resolve ground-up, apply loss_scale, run the LayerTerms
// occurrence algebra, fold the annual sum. All of it is data-parallel
// across a trial's hit list, so Backend::Simd lifts it onto 4-wide (AVX2)
// or 2-wide (NEON) Money vectors with runtime CPU dispatch, keeping the
// lane fold in occurrence order so results stay bit-identical to
// Backend::Sequential.
//
// The workload is chosen to put weight where the vector kernel works: a
// batched 16-contract book with dense hit lists (ELT covering ~40% of the
// catalogue, ~30 qualifying events per trial-year). The headline row is
// the kernel claim, so it runs secondary off (the beta sampler is
// inherently scalar) and OEP off: the occurrence roll-up's scratch
// zeroing and finalize scan are identical memory-bound work on both
// sides, so leaving them in only shrinks every ratio toward 1 without
// measuring anything about the kernel. Full-roll-up and secondary-on
// rows are reported informationally right below it.
//
// Bit-identity across Sequential / Simd / ThreadedSimd is verified before
// any timing, across secondary {off, on} × OEP {off, on}.
//
// Acceptance bar: simd <= 0.7x scalar Sequential wall-clock on a host
// that dispatches a wide ISA. Hosts or builds without one skip with a
// notice (exit 0) and write the JSON without ratio keys, so the CI gate
// is hardware-aware.
#include <iostream>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/simd.hpp"
#include "data/resolved_yelt.hpp"
#include "obs/obs.hpp"

using namespace riskan;

namespace {

/// Best-of-N wall-clock (first run warms the resolver cache; single-shot
/// numbers are unusable on shared CI hosts).
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

bool identical(const core::EngineResult& a, const core::EngineResult& b) {
  if (a.portfolio_occurrence_ylt.trials() != b.portfolio_occurrence_ylt.trials()) {
    return false;
  }
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    if (a.portfolio_ylt[t] != b.portfolio_ylt[t] ||
        a.reinstatement_premium[t] != b.reinstatement_premium[t]) {
      return false;
    }
  }
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    if (a.portfolio_occurrence_ylt[t] != b.portfolio_occurrence_ylt[t]) {
      return false;
    }
  }
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      if (a.contract_ylts[c][t] != b.contract_ylts[c][t]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout, "E16: vectorized (SIMD) vs scalar trial kernel");

  bench::JsonReport json;
  json.set("experiment", std::string("e16_simd"));

  const core::exec::SimdDispatch dispatch = core::exec::simd_dispatch();
  json.set("simd_compiled", std::string(dispatch.compiled ? "yes" : "no"));
  json.set("simd_isa", std::string(dispatch.name));
  json.set("simd_width", static_cast<std::uint64_t>(dispatch.width));
  if (dispatch.width == 0) {
    // Hardware-aware skip: the gate only binds where a wide ISA runs.
    std::cout << "SKIP: no wide ISA dispatched on this build/host ("
              << dispatch.reason << ")\n"
              << "Build with -DRISKAN_ENABLE_SIMD=ON on an AVX2/NEON host to "
                 "run the comparison.\n";
    json.set("skipped", std::string(dispatch.reason));
    const std::string json_path = bench::artifact_path("BENCH_e16.json");
    json.write(json_path);
    std::cout << "wrote " << json_path << "\n";
    return 0;
  }
  std::cout << "dispatched ISA: " << dispatch.name << " (" << dispatch.width
            << " Money lanes)\n\n";

  const TrialId trials = bench::scaled_trials(20'000);
  const int reps = bench::quick_mode() ? 2 : 5;
  auto w = bench::make_workload(/*contracts=*/16, /*elt_rows=*/4'000, trials,
                                /*events_per_year=*/30.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/2);

  data::ResolverCache cache;
  core::EngineConfig config;
  config.resolver_cache = &cache;
  config.keep_contract_ylts = true;

  // Correctness gate before any timing (and resolver-cache warm-up): the
  // vector kernel must reproduce the scalar kernel to the bit, secondary
  // off and on, OEP off and on, single-threaded and chunk-partitioned.
  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      config.secondary_uncertainty = secondary;
      config.compute_oep = oep;
      config.backend = core::Backend::Sequential;
      const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      config.backend = core::Backend::Simd;
      const auto simd = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      config.backend = core::Backend::ThreadedSimd;
      const auto threaded = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      if (!identical(reference, simd) || !identical(reference, threaded)) {
        std::cerr << "SIMD MISMATCH (secondary " << (secondary ? "on" : "off")
                  << ", oep " << (oep ? "on" : "off")
                  << ") — outputs are not bit-identical to Sequential\n";
        return 1;
      }
    }
  }
  std::cout << "bit-identity verified: Sequential == Simd == ThreadedSimd "
               "(secondary off/on x OEP off/on)\n\n";

  ReportTable table({"configuration", "sequential", "simd", "simd/sequential"});

  struct Row {
    const char* label;
    const char* key_prefix;  // "" = the headline pair
    bool secondary;
    bool oep;
  };
  constexpr Row kRows[] = {
      {"means (headline)", "", false, false},
      {"full roll-up (OEP on)", "oep_", false, true},
      {"secondary on", "secondary_", true, true},
  };

  double headline_ratio = 0.0;
  for (const Row& row : kRows) {
    config.secondary_uncertainty = row.secondary;
    config.compute_oep = row.oep;
    config.backend = core::Backend::Sequential;
    const double seq_s = best_seconds(reps, [&] {
      core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    });
    config.backend = core::Backend::Simd;
    const double simd_s = best_seconds(reps, [&] {
      core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    });
    const double ratio = simd_s / seq_s;

    table.add_row({row.label, format_seconds(seq_s), format_seconds(simd_s),
                   format_fixed(ratio, 2) + "x"});
    const std::string prefix = row.key_prefix;
    json.set(prefix + "sequential_seconds", seq_s);
    json.set(prefix + "simd_seconds", simd_s);
    json.set(prefix.empty() ? "simd_vs_sequential_ratio"
                            : prefix + "simd_vs_sequential_ratio",
             ratio);
    if (prefix.empty()) {
      headline_ratio = ratio;
    }
  }

  // Informational: the composed backend (vector kernel on the threaded
  // trial partition) vs plain Threaded, same chunk grain and regime as
  // the headline.
  config.secondary_uncertainty = false;
  config.compute_oep = false;
  config.backend = core::Backend::Threaded;
  const double thr_s = best_seconds(reps, [&] {
    core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  });
  config.backend = core::Backend::ThreadedSimd;
  const double thr_simd_s = best_seconds(reps, [&] {
    core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  });
  const double thr_ratio = thr_simd_s / thr_s;
  table.add_row({"threaded-simd vs threaded", format_seconds(thr_s),
                 format_seconds(thr_simd_s), format_fixed(thr_ratio, 2) + "x"});
  json.set("threaded_seconds", thr_s);
  json.set("threaded_simd_seconds", thr_simd_s);
  json.set("threaded_simd_vs_threaded_ratio", thr_ratio);

  bench::emit("e16_simd", table);

  std::cout << "\n[E16 verdict] simd/sequential on the means workload: "
            << format_fixed(headline_ratio, 2) << "x "
            << (headline_ratio <= 0.7 ? "(meets the <=0.7x bar)"
                                      : "(ABOVE the <=0.7x bar)")
            << "; all outputs bit-identical across backends\n";

  json.set("trials", static_cast<std::uint64_t>(trials));
  const std::string json_path = bench::artifact_path("BENCH_e16.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return headline_ratio <= 0.7 ? 0 : 2;
}
