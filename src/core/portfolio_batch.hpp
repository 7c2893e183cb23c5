// The trial kernel of aggregate analysis — core::batch::process_trials —
// and the portfolio-batched front end over it, which is the engine's one
// lowering.
//
// This file holds the repo's ONE stage-2 trial loop. Every entry point
// (run_aggregate_analysis, the multi-book runner, the scenario sweep,
// the dist coordinator's blocks — in process or on workers — and the
// pricer's run_layer) lowers to a list of Slots, is shaped into an
// exec::ExecutionPlan, and is run on this kernel (or its vectorized twin,
// core/batch_simd.hpp) by exec::execute (Sequential / Threaded) — see
// src/core/exec.hpp for the plan/execute layer.
//
// A Slot is one consumer of the streamed pass — a (contract, layer) — and
// gathers through its contract's hit-compacted CSR columns
// (data::CompactResolvedYelt): the pass touches 8 bytes per *hit* and
// spends no branches on occurrences the contract's ELT does not cover.
//
// The front end resolves every contract's ELT against the YELT
// (data::MultiResolution, shared through the ResolverCache) and flattens
// the book into slots; a single data-parallel pass over trial chunks then
// walks each trial once and feeds every slot — per-occurrence terms,
// annual terms, OEP scratch and reinstatement premium in (contract, layer)
// order, which is the order the paper's per-contract loop nest would
// accumulate in. Outputs are bit-identical across backends and scheduling,
// and equal to a naive per-contract oracle (tests enforce).
//
// The runner additionally groups *multiple* analyses by YELT identity:
// books added over the same table are served by the same streamed pass,
// each landing in its own EngineResult.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/secondary.hpp"
#include "data/elt.hpp"
#include "data/resolved_yelt.hpp"
#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "parallel/parallel_for.hpp"

namespace riskan::core::batch {

/// Sentinel in a mask's adjusted-seq column: the occurrence is excluded.
inline constexpr std::uint32_t kMaskedOut = ~std::uint32_t{0};

/// One consumer of the streamed pass: a (contract, layer) with its gather
/// inputs, optional per-slot transforms, financial terms and output sinks.
///
/// The base batched engine uses inert transforms; the scenario engine
/// (src/scenario) rides the same kernel with one slot per
/// (scenario, contract, layer), each slot carrying its scenario's transform
/// parameters:
///   loss_scale            — multiplies the sampled/mean ground-up loss
///                           (demand-surge inflation); 1.0 is a no-op that
///                           costs one predicted branch.
///   mask_seq              — YELT-entry-aligned adjusted occurrence-sequence
///                           column (scenario::MaskColumn): kMaskedOut drops
///                           the occurrence, any other value is the sequence
///                           number the occurrence would have in a physically
///                           filtered YELT (the secondary-uncertainty stream
///                           key, which is what makes mask scenarios
///                           bit-identical to filtered tables).
///   conditioned_ground_up — when >= 0, an extra deterministic occurrence of
///                           this ground-up loss is injected at the start of
///                           every trial (post-event conditioning; the value
///                           arrives pre-scaled by intensity and loss_scale).
struct Slot {
  // Gather inputs — shared by every slot of a gather group. The hit
  // columns may be null only when the hit span is empty. `elt` is always
  // required (it identifies the gather group, and a plan re-bound to a new
  // trial block checks each group still gathers from the same table).
  const std::uint64_t* hit_offsets = nullptr;  // compact CSR index, by trial
  const std::uint32_t* seqs = nullptr;         // in-trial occurrence sequence
  const std::uint32_t* rows = nullptr;         // ELT rows, parallel to seqs
  const data::EventLossTable* elt = nullptr;
  const Money* means = nullptr;
  const SecondarySampler* sampler = nullptr;  // null = use ELT means
  ContractId contract_id = 0;
  LayerId layer_id = 0;

  // Per-slot transform hooks; defaults are inert (the base batched path).
  double loss_scale = 1.0;
  const std::uint32_t* mask_seq = nullptr;
  Money conditioned_ground_up = -1.0;

  // Financial terms.
  finance::LayerTerms terms;
  finance::Reinstatements reinstatements;
  Money upfront_premium = 0.0;

  // Outputs. Spans/pointers belong to this slot's analysis (scenario).
  std::span<Money> contract_losses;     // empty when contract YLTs are off
  std::span<Money> portfolio_losses;
  std::span<Money> reinstatement_prem;  // empty when the caller discards it
  Money* occurrence_accum = nullptr;    // per-occurrence OEP scratch; null = off
  Money* conditioned_accum = nullptr;   // per-trial injected-occurrence scratch
};

/// The slot of one (contract, layer) gathering through `compact` (the
/// contract's resolution against the pass's YELT), with inert transforms
/// and no output sinks set. `sampler` is null when secondary sampling is
/// off.
Slot make_slot(const finance::Contract& contract, const finance::Layer& layer,
               const data::CompactResolvedYelt& compact, const SecondarySampler* sampler);

/// Contiguous run of slots sharing gather inputs and sampling identity
/// (contract, layer): the kernel computes each occurrence's ground-up loss
/// once per group and feeds it to every slot, which is where an S-scenario
/// sweep's sampling dedupe comes from.
struct Group {
  std::uint32_t begin = 0;
  std::uint32_t size = 0;
};

/// Splits `slots` into maximal shared-gather groups (consecutive slots with
/// identical hit columns, mean/sampler sources, contract and layer ids).
std::vector<Group> group_slots(std::span<const Slot> slots);

/// Processes trials [lo, hi) for every slot, group by group. Per trial and
/// group, each occurrence's ground-up loss is resolved once (sample or ELT
/// mean) and every slot of the group applies its own transforms and terms;
/// a masked slot whose adjusted sequence differs re-samples under the
/// filtered-table stream key. Accumulation order per output cell is the
/// per-contract loop nest's (annual sums in occurrence order; shared
/// accumulators in slot order), which is what keeps the outputs bit-
/// identical to the naive oracle and across chunkings. State is indexed
/// by trial (or the trial's occurrence range), so disjoint chunks never
/// race. `annual_scratch` needs one entry per slot of the largest group.
void process_trials(std::span<const Slot> slots, std::span<const Group> groups,
                    std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                    bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                    std::span<Money> annual_scratch);

/// Per-trial OEP finalisation: oep[t] = max over the trial's occurrence
/// accumulator range, seeded by the conditioned per-trial slot when
/// `conditioned_accum` is non-empty (scenario conditioning injects one
/// extra occurrence per trial that has no slot in the occurrence range).
void finalize_oep(std::span<Money> oep, std::span<const Money> occurrence_accum,
                  std::span<const std::uint64_t> yelt_offsets,
                  std::span<const Money> conditioned_accum);

}  // namespace riskan::core::batch

namespace riskan::core {

/// The engine's one lowering behind run_aggregate_analysis, which forwards
/// here: one streamed YELT pass for the whole portfolio. Same inputs and
/// the same EngineResult as run_aggregate_analysis.
EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 const data::YearEventLossTable& yelt,
                                 const EngineConfig& config = {});

/// Run over any data::TrialSource: the out-of-core twin of the in-memory
/// overload (which wraps its table in a one-block source and calls this).
/// The plan is lowered against the first trial block and re-bound per
/// block — resolutions per block through the ResolverCache, per-trial
/// outputs sliced by block, the block's trial offset riding the sampling
/// stream base — so a streamed run is bit-identical to the in-memory one
/// on every backend.
EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 data::TrialSource& source,
                                 const EngineConfig& config = {});

/// Multi-book front end: register any number of (portfolio, YELT) analyses,
/// then run them with one streamed pass per *distinct* YELT — contracts of
/// different books sharing a table ride the same scan.
class PortfolioBatchRunner {
 public:
  explicit PortfolioBatchRunner(EngineConfig config = {});

  /// Registers a book. Both referents must outlive run(). Returns the
  /// index of this analysis in run()'s result vector.
  std::size_t add(const finance::Portfolio& portfolio,
                  const data::YearEventLossTable& yelt);

  /// Runs every registered analysis; results are indexed as added. Each
  /// result is bit-identical to run_aggregate_analysis on that
  /// (portfolio, yelt) with the same config.
  std::vector<EngineResult> run() const;

  std::size_t analyses() const noexcept { return analyses_.size(); }
  /// Distinct YELTs among the registered analyses (= streamed passes run()
  /// will make).
  std::size_t group_count() const noexcept;

 private:
  struct Analysis {
    const finance::Portfolio* portfolio = nullptr;
    const data::YearEventLossTable* yelt = nullptr;
  };

  EngineConfig config_;
  std::vector<Analysis> analyses_;
};

}  // namespace riskan::core
