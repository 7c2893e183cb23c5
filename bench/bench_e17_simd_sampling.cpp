// E17 — vectorized secondary sampling (SIMD phase 2).
//
// E16 vectorized the occurrence algebra but left secondary-uncertainty
// groups on the scalar kernel: the beta sampler consumed one Philox word
// at a time through PhiloxStream, and its rejection loops looked
// inherently serial. Phase 2 restructures the sampler around the batched
// Philox engine (util/prng.hpp): all counter blocks for a batch of
// occurrences are computed lane-parallel, the Marsaglia–Tsang first
// attempt for both gamma marginals runs on that pre-drawn word budget, and
// only the rejection tail falls back to the scalar sampler on a fresh
// per-occurrence stream — which recomputes from the stream's start, so
// results stay bit-identical to the scalar kernel. finalize_oep's
// running-max scan is vectorized alongside (order-invariant for its
// non-negative input class).
//
// The workload matches E16 (batched 16-contract book, dense hit lists) so
// the two reports compose: E16's secondary-on row was ~0.9x scalar
// (sampling dominated and stayed scalar); the headline here is that same
// secondary-on + OEP-on configuration, now gated at <= 0.7x. The
// full-roll-up (means + OEP) row tracks the finalize_oep win against
// E16's 0.71x.
//
// The Sequential and Threaded executors run the vector kernel by default;
// the scalar baseline is the same executor under RISKAN_SIMD=off.
// Bit-identity is verified before any timing across {Sequential,
// Threaded} on the vector kernel vs Sequential on the scalar kernel x
// secondary {off, on} x OEP {off, on}, plus the distributed coordinator at
// 0 / 2 / 4 forked workers with secondary on (workers run Sequential, so
// they keep the vectorized kernel; the fold must not move a bit).
//
// Timing interleaves the kernels: each row runs scalar/vector pairs,
// alternating which goes first, and reads the median of the per-pair
// vector/scalar ratios, so drift in the host's capacity during the run
// lands on both sides of a pair instead of on one kernel. The JSON records
// the pairs' spread (lowest and highest ratio) next to the median.
//
// Acceptance bar: secondary-on simd <= 0.7x scalar Sequential wall-clock
// (median pair) on a host that dispatches a wide ISA. Hosts or builds
// without one skip with a notice (exit 0) and write the JSON without ratio
// keys, so the CI gate is hardware-aware.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/simd.hpp"
#include "data/resolved_yelt.hpp"
#include "data/serialize.hpp"
#include "dist/coordinator.hpp"
#include "obs/obs.hpp"
#include "tests/kernel_modes.hpp"
#include "util/bytes.hpp"

using namespace riskan;

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Medians and spread of `pairs` interleaved scalar/vector runs.
struct PairedTiming {
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  double ratio = 0.0;  // median of the per-pair simd/scalar ratios
  double ratio_min = 0.0;
  double ratio_max = 0.0;
};

/// Times `run` under the scalar kernel (RISKAN_SIMD=off) and the dispatched
/// vector kernel in back-to-back pairs; odd pairs run the vector side first.
template <typename Run>
PairedTiming paired_seconds(int pairs, const Run& run) {
  const auto timed = [&run] {
    obs::Timer watch("bench.rep");
    run();
    return watch.stop();
  };
  const auto scalar = [&timed] {
    const test_support::KernelScope off(test_support::KernelMode::ScalarOff);
    return timed();
  };
  std::vector<double> scalar_s;
  std::vector<double> simd_s;
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double sc = 0.0;
    double ve = 0.0;
    if (p % 2 == 0) {
      sc = scalar();
      ve = timed();
    } else {
      ve = timed();
      sc = scalar();
    }
    scalar_s.push_back(sc);
    simd_s.push_back(ve);
    ratios.push_back(ve / sc);
  }
  PairedTiming out;
  out.scalar_seconds = median(scalar_s);
  out.simd_seconds = median(simd_s);
  out.ratio = median(ratios);
  out.ratio_min = *std::min_element(ratios.begin(), ratios.end());
  out.ratio_max = *std::max_element(ratios.begin(), ratios.end());
  return out;
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

bool same_ylt(const data::YearLossTable& a, const data::YearLossTable& b) {
  if (a.trials() != b.trials()) {
    return false;
  }
  for (TrialId t = 0; t < a.trials(); ++t) {
    if (a[t] != b[t]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  print_banner(std::cout, "E17: vectorized secondary sampling vs the scalar sampler");

  bench::JsonReport json;
  json.set("experiment", std::string("e17_simd_sampling"));

  const core::exec::SimdDispatch dispatch = core::exec::simd_dispatch();
  json.set("simd_compiled", std::string(dispatch.compiled ? "yes" : "no"));
  json.set("simd_isa", std::string(dispatch.name));
  json.set("simd_width", static_cast<std::uint64_t>(dispatch.width));
  if (dispatch.width == 0) {
    // Hardware-aware skip: the gate only binds where a wide ISA runs.
    std::cout << "SKIP: no wide ISA dispatched on this build/host ("
              << dispatch.reason << ")\n"
              << "Run on an AVX2/NEON host, with RISKAN_ENABLE_SIMD on (the "
                 "default) and RISKAN_SIMD unset, to run the comparison.\n";
    json.set("skipped", std::string(dispatch.reason));
    const std::string json_path = bench::artifact_path("BENCH_e17.json");
    json.write(json_path);
    std::cout << "wrote " << json_path << "\n";
    return 0;
  }
  std::cout << "dispatched ISA: " << dispatch.name << " (" << dispatch.width
            << " Money lanes)\n\n";

  const TrialId trials = bench::scaled_trials(20'000);
  const int pairs = bench::quick_mode() ? 5 : 7;
  auto w = bench::make_workload(/*contracts=*/16, /*elt_rows=*/4'000, trials,
                                /*events_per_year=*/30.0, /*catalog_events=*/10'000,
                                /*layers_per_contract=*/2);

  data::ResolverCache cache;
  core::EngineConfig config;
  config.resolver_cache = &cache;
  config.keep_contract_ylts = true;

  // Correctness gate before any timing (and resolver-cache warm-up): the
  // batched sampler must reproduce the scalar sampler to the bit across
  // the single-process backends...
  for (const bool secondary : {false, true}) {
    for (const bool oep : {false, true}) {
      config.secondary_uncertainty = secondary;
      config.compute_oep = oep;
      config.backend = core::Backend::Sequential;
      const auto reference = [&] {
        const test_support::KernelScope scalar(test_support::KernelMode::ScalarOff);
        return core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      }();
      const auto simd = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      config.backend = core::Backend::Threaded;
      const auto threaded = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
      if (!identical(reference, simd) || !identical(reference, threaded)) {
        std::cerr << "SIMD MISMATCH (secondary " << (secondary ? "on" : "off")
                  << ", oep " << (oep ? "on" : "off")
                  << ") — outputs are not bit-identical to the scalar kernel\n";
        return 1;
      }
    }
  }

  // ...and across the distributed coordinator: 0 (in-process), 2 and 4
  // forked workers, secondary on, each fold bit-identical to the
  // single-process scalar portfolio view. Workers run Sequential on the
  // vectorized kernel, so this is the batched sampler under fork.
  {
    core::EngineConfig dist_engine;
    dist_engine.backend = core::Backend::Sequential;
    dist_engine.secondary_uncertainty = true;
    dist_engine.compute_oep = false;
    dist_engine.keep_contract_ylts = false;
    const auto reference = [&] {
      const test_support::KernelScope scalar(test_support::KernelMode::ScalarOff);
      return core::run_aggregate_analysis(w.portfolio, w.yelt, dist_engine).portfolio_ylt;
    }();

    const TrialId per_block = std::max<TrialId>(1, trials / 8);
    std::vector<dist::BlockSpec> specs;
    std::vector<std::vector<std::byte>> encoded;
    for (TrialId lo = 0; lo < trials; lo += per_block) {
      const TrialId hi = std::min<TrialId>(trials, lo + per_block);
      ByteWriter writer;
      data::encode_yelt_slice(w.yelt, lo, hi, writer);
      specs.push_back({encoded.size(), lo, hi - lo});
      encoded.push_back(writer.buffer());
    }
    const auto fetch = [&](const dist::BlockSpec& spec) { return encoded[spec.id]; };

    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      dist::DistConfig dist_config;
      dist_config.workers = workers;
      dist_config.lease_seconds = 10.0;
      const auto result = dist::run_distributed_aggregate(w.portfolio, dist_engine,
                                                          specs, fetch, dist_config);
      if (!same_ylt(result.portfolio_ylt, reference)) {
        std::cerr << "DIST MISMATCH — secondary-on vector fold at " << workers
                  << " workers is not bit-identical to the scalar kernel\n";
        return 1;
      }
    }
  }
  std::cout << "bit-identity verified: scalar Sequential == vector Sequential == "
               "vector Threaded (secondary off/on x OEP off/on) and dist workers "
               "{0, 2, 4} (secondary on)\n\n";

  ReportTable table({"configuration", "sequential", "simd", "simd/sequential",
                     "pair range"});

  struct Row {
    const char* label;
    const char* key_prefix;  // "" = the headline pair
    bool secondary;
    bool oep;
  };
  constexpr Row kRows[] = {
      {"secondary + OEP (headline)", "", true, true},
      {"secondary, no OEP", "sampling_", true, false},
      {"full roll-up, means (E16 tracker)", "rollup_", false, true},
  };

  double headline_ratio = 0.0;
  for (const Row& row : kRows) {
    config.secondary_uncertainty = row.secondary;
    config.compute_oep = row.oep;
    config.backend = core::Backend::Sequential;
    const PairedTiming timing = paired_seconds(pairs, [&] {
      core::run_aggregate_analysis(w.portfolio, w.yelt, config);
    });

    table.add_row({row.label, format_seconds(timing.scalar_seconds),
                   format_seconds(timing.simd_seconds), format_fixed(timing.ratio, 2) + "x",
                   format_fixed(timing.ratio_min, 2) + "-" +
                       format_fixed(timing.ratio_max, 2) + "x"});
    const std::string prefix = row.key_prefix;
    json.set(prefix + "sequential_seconds", timing.scalar_seconds);
    json.set(prefix + "simd_seconds", timing.simd_seconds);
    json.set(prefix.empty() ? "simd_vs_sequential_ratio"
                            : prefix + "simd_vs_sequential_ratio",
             timing.ratio);
    json.set(prefix + "pair_ratio_min", timing.ratio_min);
    json.set(prefix + "pair_ratio_max", timing.ratio_max);
    if (prefix.empty()) {
      headline_ratio = timing.ratio;
    }
  }
  json.set("pairs", static_cast<std::uint64_t>(pairs));

  bench::emit("e17_simd_sampling", table);

  // Fast-path utilization: one instrumented secondary-on vector run, read
  // through the global metrics registry. The hit rate is the fraction of
  // drawn occurrences resolved by the lane fast path (degenerate rows
  // included) rather than the scalar rejection-tail fallback — the number
  // the batched sampler's win rests on. Skipped occurrences are the ones
  // the attachment cut leaves undrawn (row exposure at or below the
  // layer's retention); they count in neither.
  config.secondary_uncertainty = true;
  config.compute_oep = true;
  config.backend = core::Backend::Sequential;
  const auto before = obs::MetricsRegistry::global().snapshot();
  core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  const auto after = obs::MetricsRegistry::global().snapshot();
  const auto delta = obs::RegistrySnapshot::delta(before, after);
  const double fast = delta.counter_value("exec.simd.sampler.fast");
  const double tail = delta.counter_value("exec.simd.sampler.tail");
  const double skipped = delta.counter_value("exec.simd.sampler.skipped");
  const double hit_rate = fast + tail > 0.0 ? fast / (fast + tail) : 0.0;
  std::cout << "\nsampler fast path: " << static_cast<std::uint64_t>(fast)
            << " occurrences, rejection tail: " << static_cast<std::uint64_t>(tail)
            << " (hit rate " << format_fixed(hit_rate * 100.0, 1) << "%)"
            << ", skipped under the attachment cut: " << static_cast<std::uint64_t>(skipped)
            << "\n";
  json.set("sampler_fast_occurrences", static_cast<std::uint64_t>(fast));
  json.set("sampler_tail_occurrences", static_cast<std::uint64_t>(tail));
  json.set("sampler_skipped_occurrences", static_cast<std::uint64_t>(skipped));
  json.set("sampler_fast_hit_rate", hit_rate);

  std::cout << "\n[E17 verdict] simd/sequential on the secondary + OEP workload, median of "
            << pairs << " interleaved pairs: " << format_fixed(headline_ratio, 2) << "x "
            << (headline_ratio <= 0.7 ? "(meets the <=0.7x bar)"
                                      : "(ABOVE the <=0.7x bar)")
            << "; all outputs bit-identical across backends and dist workers\n";

  json.set("trials", static_cast<std::uint64_t>(trials));
  const std::string json_path = bench::artifact_path("BENCH_e17.json");
  json.write(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return headline_ratio <= 0.7 ? 0 : 2;
}
