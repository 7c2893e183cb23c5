// Aggregate analysis — the paper's stage-2 Monte Carlo engine.
//
// "An additional Monte Carlo simulation, referred to as aggregate analysis,
// is necessary for generating an alternate view of which events occur and
// in which order they occur within a contractual year... a pre-simulated
// Year-Event-Loss Table containing between several thousand and millions of
// alternative views of a single contractual year is used. The output of
// aggregate analysis is a Year-Loss Table."
//
// For every (contract, layer, trial): walk the trial's YELT occurrences,
// gather each occurrence's ELT row, optionally sample secondary
// uncertainty, apply per-occurrence terms, sum, apply annual aggregate
// terms and share, and accumulate into the contract's and the portfolio's
// YLT.
//
// There is exactly ONE implementation of that loop in the repo:
// core::batch::process_trials (src/core/portfolio_batch.hpp), and ONE
// lowering onto it: every contract's ELT is pre-joined once per (contract,
// YELT) into hit-compacted CSR columns (data::CompactResolvedYelt, cached
// by data::ResolverCache) and the whole book becomes one slot per
// (contract, layer) served by a single streamed pass over the trials.
// Every entry point — this front end, the multi-book runner, the scenario
// sweep, the dist coordinator's blocks (in process or on workers) and the
// pricer's run_layer — lowers its request into batch slots via an
// exec::ExecutionPlan (src/core/exec.hpp) and runs it with exec::execute
// on one of two host backends:
//   Sequential — single thread, pool-free; the baseline of the paper's
//                "15x" claim (the dist coordinator's in-process blocks
//                rely on the pool-free contract).
//   Threaded   — parallel trial chunks on the shared-memory pool.
// Threading and ISA are independent: Sequential and Threaded both run the
// vectorized kernel (src/core/batch_simd.hpp) on the runtime-dispatched
// ISA (core/simd.hpp) and fall back to the scalar kernel where none is
// available or RISKAN_SIMD=off.
// Outputs are bit-identical across backends and scheduling, and equal to
// a naive per-contract oracle that shares no code with the kernel (tests
// enforce).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/adaptive/adaptive.hpp"
#include "data/resolved_yelt.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "finance/contract.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace riskan::data {
class TrialSource;  // data/trial_source.hpp — the engine's data plane
struct TrialBlock;
}

namespace riskan::core {

enum class Backend {
  Sequential,
  Threaded,
};

const char* to_string(Backend backend) noexcept;

/// Every backend, in to_string order — the shared iteration helper for
/// equivalence-matrix tests and benches (no per-file backend lists).
inline constexpr Backend kAllBackends[] = {Backend::Sequential, Backend::Threaded};

/// Backends bound to the caller's thread (never the pool): resolution
/// builds and block decodes under them must run inline, both for the
/// single-thread contract (the dist coordinator's in-process blocks invoke
/// the engine from pool workers, where submitting and blocking can
/// deadlock) and for dist workers, which are forked processes without a
/// pool.
constexpr bool pool_free(Backend backend) noexcept {
  return backend == Backend::Sequential;
}

struct EngineConfig {
  Backend backend = Backend::Threaded;
  /// Master seed for secondary uncertainty streams.
  std::uint64_t seed = 2012;
  /// Sample per-occurrence secondary uncertainty (beta). Off = use ELT
  /// means; the ablation bench measures the cost.
  bool secondary_uncertainty = true;
  /// Trials per parallel chunk (Threaded) — the chunking knob of E4.
  /// 0 = library default.
  std::size_t trial_grain = 0;
  /// Also produce the per-trial maximum occurrence loss (OEP input).
  /// Costs one Money per YELT occurrence of scratch.
  bool compute_oep = true;
  /// Keep per-contract YLTs in the result. Off saves contracts x trials
  /// doubles when only the portfolio view is needed (large benches).
  bool keep_contract_ylts = true;
  /// Pool for the Threaded backend; nullptr = shared pool.
  ThreadPool* pool = nullptr;
  /// Global id of this YELT's first trial. Secondary-uncertainty streams
  /// are keyed by (trial_base + local trial), so a partition of the YELT
  /// processed separately (MapReduce splits) reproduces the exact losses of
  /// a monolithic run.
  TrialId trial_base = 0;
  /// Cache of compact resolutions shared across runs; nullptr = the
  /// process-wide data::ResolverCache::shared().
  data::ResolverCache* resolver_cache = nullptr;
  /// Convergence-adaptive stopping (core/adaptive): with
  /// adaptive.target_rel_err > 0 the run consumes trials in decision
  /// blocks, folds streaming estimators after each, and stops once the
  /// monitored metrics' CIs close — returning the (bit-identical) prefix
  /// of the fixed-budget run plus EngineResult::adaptive. The default
  /// (target_rel_err = 0) disables the path entirely.
  adaptive::AdaptiveConfig adaptive;
  /// Per-run observability (src/obs/): end-of-run metrics report and/or
  /// chrome-trace export. Zero-initialized = off; the always-on global
  /// registry and RISKAN_TRACE/RISKAN_OBS env controls work regardless.
  /// Exactly one scope — the outermost entry point — observes a run:
  /// delegating paths (adaptive driver re-entry, batch lowering, dist
  /// workers) clear this on their inner configs.
  obs::ObsConfig obs;
};

/// Validates the cross-field sanity of `config` up front with
/// ContractViolation errors instead of silent misbehavior downstream:
/// bounded trial_grain, valid obs and adaptive settings. Every engine
/// entry point calls this before planning.
void validate_engine_config(const EngineConfig& config);

/// Result of one aggregate-analysis run.
struct EngineResult {
  /// Per-trial portfolio net loss (annual aggregate) — the AEP sample.
  data::YearLossTable portfolio_ylt;
  /// Per-trial maximum single-occurrence portfolio net loss — the OEP
  /// sample. Empty when compute_oep is off.
  data::YearLossTable portfolio_occurrence_ylt;
  /// Per-contract aggregate YLTs, indexed as the portfolio's contracts.
  std::vector<data::YearLossTable> contract_ylts;
  /// Per-trial reinstatement premium earned back by the portfolio.
  data::YearLossTable reinstatement_premium;

  double seconds = 0.0;
  std::uint64_t occurrences_processed = 0;
  /// Occurrences that resolved to an ELT row, times the contract's layers.
  std::uint64_t elt_lookups = 0;
  /// Wall-clock spent building event→row resolutions (0 on cache hits);
  /// included in `seconds`.
  double resolve_seconds = 0.0;
  /// Convergence report of an adaptive run (enabled = false otherwise):
  /// stopping trial count, stop reason, per-metric estimates and CIs.
  adaptive::AdaptiveReport adaptive;
  /// End-of-run observability report (EngineConfig::obs.collect_report /
  /// report_path); nullptr when not requested.
  std::shared_ptr<const obs::ObsReport> obs_report;
};

/// Runs aggregate analysis for `portfolio` over `yelt` with `config`.
/// Deterministic in (portfolio, yelt, seed) — backend and scheduling do not
/// change a single bit of the YLTs.
EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    const data::YearEventLossTable& yelt,
                                    const EngineConfig& config = {});

/// The same analysis over any data::TrialSource — the one data plane behind
/// every entry point. The in-memory overload wraps its table in a one-block
/// InMemorySource and calls this; an out-of-core run passes a
/// ChunkedFileSource and streams trial blocks through the *same* execution
/// plan (lowered once, re-bound per block, with each block's trial offset
/// keying the sampling streams), so the outputs are bit-identical to the
/// in-memory run across every backend, with per-contract YLTs and OEP
/// available.
EngineResult run_aggregate_analysis(const finance::Portfolio& portfolio,
                                    data::TrialSource& source,
                                    const EngineConfig& config = {});

/// Resolver cache for a run over `source`: always `local` when the
/// source's blocks are transient decodes (their resolutions must not park
/// dead keys in any durable cache, the caller's included — the block
/// driver clears `local` between blocks); otherwise config.resolver_cache
/// when set, else ResolverCache::shared().
data::ResolverCache& resolver_cache_for(const EngineConfig& config,
                                        const data::TrialSource& source,
                                        data::ResolverCache& local);

/// The one block-consumption driver every runner shares. Yields each of
/// `source`'s blocks to `body` together with the block's effective
/// sampling stream base (config.trial_base + block.trial_offset — the
/// invariant that keeps streamed runs bit-identical to monolithic ones)
/// and ENSUREs in-order delivery covering exactly source.trials().
/// `run_local_cache` is the run's local resolver cache (the one
/// resolver_cache_for selected for ephemeral sources): after each
/// ephemeral block it is cleared, so transient resolutions cannot outlive
/// the block whose pointers key them.
void for_each_trial_block(data::TrialSource& source, const EngineConfig& config,
                          data::ResolverCache& run_local_cache,
                          const std::function<void(const data::TrialBlock&, TrialId)>& body);

/// Single-layer convenience used by the pricer and micro-benches: returns
/// the layer's per-trial net losses — a one-slot plan over the caller's
/// contract (no copy), resolved through a run-local cache. Rejects an
/// adaptive config (a quote prices every trial).
std::vector<Money> run_layer(const finance::Contract& contract, const finance::Layer& layer,
                             const data::YearEventLossTable& yelt, const EngineConfig& config);

}  // namespace riskan::core
