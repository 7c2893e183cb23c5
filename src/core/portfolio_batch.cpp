#include "core/portfolio_batch.hpp"

#include <algorithm>
#include <limits>

#include "core/adaptive/driver.hpp"
#include "core/batch_simd.hpp"
#include "core/exec.hpp"
#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "data/resolved_yelt.hpp"
#include "data/trial_source.hpp"
#include "finance/terms.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::batch {

namespace {

bool same_gather(const Slot& a, const Slot& b) noexcept {
  return a.hit_offsets == b.hit_offsets && a.seqs == b.seqs && a.rows == b.rows &&
         a.elt == b.elt && a.means == b.means && a.sampler == b.sampler &&
         a.contract_id == b.contract_id && a.layer_id == b.layer_id;
}

/// The conditioned occurrence of one (slot, trial), if any: applied before
/// the trial's own occurrences. Returns its contribution to the annual sum.
inline Money conditioned_annual(const Slot& s, TrialId t) {
  if (s.conditioned_ground_up < 0.0) {
    return 0.0;
  }
  const Money occ = finance::apply_occurrence(s.terms, s.conditioned_ground_up);
  if (s.conditioned_accum != nullptr && occ > 0.0) {
    s.conditioned_accum[t] += occ * s.terms.share;
  }
  return occ;
}

/// Annual terms + output accumulation of one (slot, trial).
inline void finish_slot_trial(const Slot& s, TrialId t, Money annual) {
  const Money consumed = finance::apply_aggregate(s.terms, annual);
  const Money net = consumed * s.terms.share;
  if (net > 0.0) {
    if (!s.contract_losses.empty()) {
      s.contract_losses[t] += net;
    }
    s.portfolio_losses[t] += net;
    s.reinstatement_prem[t] +=
        s.reinstatements.premium_due(consumed, s.terms.occ_limit, s.upfront_premium);
  }
}

/// The slot's attachment cut (core/secondary.hpp). An occurrence of a row
/// the cut marks dead can only yield +0.0 under the slot's terms, so the
/// kernels skip its draw: skipping it adds nothing to the annual sum
/// (never -0.0, so adding +0.0 is the identity) and nothing to the OEP
/// accumulator (it only takes occurrence losses > 0).
inline AttachmentCut attachment_cut(const Slot& s) noexcept {
  return AttachmentCut{s.loss_scale, s.terms.occ_retention};
}

inline bool inert_transforms(const Slot& s) noexcept {
  return s.mask_seq == nullptr && s.loss_scale == 1.0 && s.conditioned_ground_up < 0.0;
}

/// Singleton-group fast path: the base batched engine's regime (every slot
/// its own gather group). Keeps the annual sum in a register — the grouped
/// kernel's scratch-array accumulation costs a per-occurrence memory RMW
/// that shows up at streaming rates — and compiles the transform hooks out
/// entirely for inert slots (kTransforms = false), so the base path keeps
/// the pre-scenario kernel's instruction stream.
template <bool kTransforms>
inline void process_singleton_trial(const Slot& s, const Philox4x32& philox,
                                    bool secondary, TrialId trial_base, TrialId t,
                                    std::uint64_t trial_begin) {
  Money annual = kTransforms ? conditioned_annual(s, t) : 0.0;
  // Inert slots have loss_scale 1.0; folding it lets the cut compile to a
  // plain compare.
  const AttachmentCut cut{kTransforms ? s.loss_scale : 1.0, s.terms.occ_retention};
  const std::uint64_t k_end = s.hit_offsets[t + 1];
  for (std::uint64_t k = s.hit_offsets[t]; k < k_end; ++k) {
    const std::uint32_t seq = s.seqs[k];
    const std::uint32_t row = s.rows[k];
    std::uint32_t eff_seq = seq;
    if constexpr (kTransforms) {
      if (s.mask_seq != nullptr) {
        const std::uint32_t adjusted = s.mask_seq[trial_begin + seq];
        if (adjusted == kMaskedOut) {
          continue;
        }
        eff_seq = adjusted;
      }
    }
    Money ground_up;
    if (secondary) {
      if (cut.dead(s.sampler->max_loss(row))) {
        continue;
      }
      auto stream =
          occurrence_stream(philox, s.contract_id, s.layer_id, trial_base + t, eff_seq);
      ground_up = s.sampler->sample(row, stream);
    } else {
      ground_up = s.means[row];
    }
    if constexpr (kTransforms) {
      if (s.loss_scale != 1.0) {
        ground_up *= s.loss_scale;
      }
    }
    const Money occ = finance::apply_occurrence(s.terms, ground_up);
    annual += occ;
    if (s.occurrence_accum != nullptr && occ > 0.0) {
      s.occurrence_accum[trial_begin + seq] += occ * s.terms.share;
    }
  }
  finish_slot_trial(s, t, annual);
}

}  // namespace

Slot make_slot(const finance::Contract& contract, const finance::Layer& layer,
               const data::CompactResolvedYelt& compact, const SecondarySampler* sampler) {
  Slot slot;
  slot.hit_offsets = compact.trial_offsets().data();
  slot.seqs = compact.seqs().data();
  slot.rows = compact.rows().data();
  slot.elt = &contract.elt();
  slot.means = contract.elt().mean_loss().data();
  slot.sampler = sampler;
  slot.contract_id = contract.id();
  slot.layer_id = layer.id;
  slot.terms = layer.terms;
  slot.reinstatements = layer.reinstatements;
  slot.upfront_premium = layer.upfront_premium;
  return slot;
}

std::vector<Group> group_slots(std::span<const Slot> slots) {
  std::vector<Group> groups;
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i + 1;
    while (j < slots.size() && same_gather(slots[i], slots[j])) {
      ++j;
    }
    groups.push_back(Group{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return groups;
}

void process_trials(std::span<const Slot> slots, std::span<const Group> groups,
                    std::span<const std::uint64_t> yelt_offsets, const Philox4x32& philox,
                    bool secondary, TrialId trial_base, TrialId lo, TrialId hi,
                    std::span<Money> annual_scratch) {
  // The base batched engine flattens to all-inert singleton groups; that
  // regime takes a dedicated loop whose body is exactly the pre-scenario
  // kernel (slots iterated directly, no group machinery, transform hooks
  // compiled out), so growing the scenario hooks costs the base path
  // nothing. Checked once per chunk.
  bool all_inert_singletons = slots.size() == groups.size();
  if (all_inert_singletons) {
    for (const Slot& s : slots) {
      if (!inert_transforms(s)) {
        all_inert_singletons = false;
        break;
      }
    }
  }
  if (all_inert_singletons) {
    for (TrialId t = lo; t < hi; ++t) {
      const std::uint64_t trial_begin = yelt_offsets[t];
      for (const Slot& s : slots) {
        process_singleton_trial<false>(s, philox, secondary, trial_base, t, trial_begin);
      }
    }
    return;
  }

  for (TrialId t = lo; t < hi; ++t) {
    const std::uint64_t trial_begin = yelt_offsets[t];
    for (const Group& group : groups) {
      const Slot* gs = slots.data() + group.begin;
      const std::size_t gsize = group.size;
      if (gsize == 1) {
        if (inert_transforms(gs[0])) {
          process_singleton_trial<false>(gs[0], philox, secondary, trial_base, t,
                                         trial_begin);
        } else {
          process_singleton_trial<true>(gs[0], philox, secondary, trial_base, t,
                                        trial_begin);
        }
        continue;
      }
      const Slot& lead = gs[0];

      // Conditioned occurrences come first: the event has already happened
      // when the trial year's own occurrences play out.
      for (std::size_t i = 0; i < gsize; ++i) {
        annual_scratch[i] = conditioned_annual(gs[i], t);
      }

      const std::uint64_t k_end = lead.hit_offsets[t + 1];
      for (std::uint64_t k = lead.hit_offsets[t]; k < k_end; ++k) {
        const std::uint32_t seq = lead.seqs[k];
        const std::uint32_t row = lead.rows[k];
        // The occurrence's ground-up loss is identical for every unmasked
        // slot of the group (the stream is keyed by contract/layer/trial/
        // seq, none of which a transform changes), so it is resolved once.
        // Masked slots with a shifted sequence sample under the key the
        // occurrence has in the physically filtered table; that sample too
        // depends only on eff_seq within the group, so scenarios sharing a
        // (deduped) mask column share it through a one-entry cache. A slot
        // dead under its attachment cut takes +0.0 without a draw, so the
        // group samples only if some live slot reads the value.
        const Money max_loss = secondary ? lead.sampler->max_loss(row) : 0.0;
        Money shared_gu = 0.0;
        bool shared_ready = false;
        std::uint32_t shifted_seq = kMaskedOut;
        Money shifted_gu = 0.0;
        for (std::size_t i = 0; i < gsize; ++i) {
          const Slot& s = gs[i];
          std::uint32_t eff_seq = seq;
          if (s.mask_seq != nullptr) {
            const std::uint32_t adjusted = s.mask_seq[trial_begin + seq];
            if (adjusted == kMaskedOut) {
              continue;
            }
            eff_seq = adjusted;
          }
          Money ground_up;
          if (secondary) {
            if (attachment_cut(s).dead(max_loss)) {
              continue;
            }
            if (eff_seq == seq) {
              if (!shared_ready) {
                auto stream = occurrence_stream(philox, s.contract_id, s.layer_id,
                                                trial_base + t, seq);
                shared_gu = s.sampler->sample(row, stream);
                shared_ready = true;
              }
              ground_up = shared_gu;
            } else {
              if (eff_seq != shifted_seq) {
                auto stream = occurrence_stream(philox, s.contract_id, s.layer_id,
                                                trial_base + t, eff_seq);
                shifted_gu = s.sampler->sample(row, stream);
                shifted_seq = eff_seq;
              }
              ground_up = shifted_gu;
            }
          } else {
            ground_up = s.means[row];
          }
          if (s.loss_scale != 1.0) {
            ground_up *= s.loss_scale;
          }
          const Money occ = finance::apply_occurrence(s.terms, ground_up);
          annual_scratch[i] += occ;
          if (s.occurrence_accum != nullptr && occ > 0.0) {
            s.occurrence_accum[trial_begin + seq] += occ * s.terms.share;
          }
        }
      }

      for (std::size_t i = 0; i < gsize; ++i) {
        finish_slot_trial(gs[i], t, annual_scratch[i]);
      }
    }
  }
}

void finalize_oep(std::span<Money> oep, std::span<const Money> occurrence_accum,
                  std::span<const std::uint64_t> yelt_offsets,
                  std::span<const Money> conditioned_accum) {
  // Per-trial max over the accumulator range, lane-parallel where a wide
  // ISA dispatches. Reordering the max is bitwise safe for this input:
  // every accumulator cell is a sum of non-negative contributions seeded
  // with 0.0 (no NaN, no -0.0), and equal non-negative doubles share one
  // bit pattern, so any reduction order picks the same bits. The dispatch
  // is resolved once per call, not per trial.
  const exec::SimdDispatch dispatch = exec::simd_dispatch();
  using MaxFn = Money (*)(const Money*, std::size_t, Money);
  MaxFn max_fn = nullptr;
  switch (dispatch.isa) {
#if defined(RISKAN_SIMD_AVX2)
    case exec::SimdIsa::Avx2:
      max_fn = max_range_lanes_avx2;
      break;
#endif
#if defined(RISKAN_SIMD_NEON)
    case exec::SimdIsa::Neon:
      max_fn = max_range_lanes_neon;
      break;
#endif
    default:
      break;
  }
  for (TrialId t = 0; t < static_cast<TrialId>(oep.size()); ++t) {
    Money worst = conditioned_accum.empty() ? 0.0 : std::max(0.0, conditioned_accum[t]);
    const std::uint64_t begin = yelt_offsets[t];
    const std::uint64_t end = yelt_offsets[t + 1];
    if (max_fn != nullptr) {
      worst = max_fn(occurrence_accum.data() + begin,
                     static_cast<std::size_t>(end - begin), worst);
    } else {
      for (std::uint64_t i = begin; i < end; ++i) {
        worst = std::max(worst, occurrence_accum[i]);
      }
    }
    oep[t] = worst;
  }
}

namespace detail {

// Out-of-line exports of the kernel's scalar helpers for the per-ISA SIMD
// TUs (core/batch_simd*.cpp): sampling and the trial finish stay compiled
// with the portable baseline flags, so a wide TU links them instead of
// re-instantiating PRNG/beta templates under its own ISA.

Money conditioned_annual_slot(const Slot& s, TrialId t) { return conditioned_annual(s, t); }

void finish_slot_trials_out(const Slot& s, TrialId t0, TrialId t1, const Money* annuals) {
  for (TrialId t = t0; t < t1; ++t) {
    finish_slot_trial(s, t, annuals[t - t0]);
  }
}

namespace {

/// Stream-key scratch batch for the batched fills (16 KiB of stack).
constexpr std::size_t kFillBatch = 1024;

inline std::uint64_t slot_hi_key(const Slot& s) noexcept {
  return (static_cast<std::uint64_t>(s.contract_id) << 16) |
         static_cast<std::uint64_t>(s.layer_id);
}

inline std::uint64_t stream_lo_key(TrialId trial, std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(trial) << 20) | static_cast<std::uint64_t>(seq);
}

}  // namespace

void fill_ground_up_compact_range(const Slot& s, const Philox4x32& philox,
                                  TrialId trial_base, TrialId t_first,
                                  std::uint64_t k_begin, std::uint64_t k_end, Money* out,
                                  SimdStats& stats) {
  // Build each occurrence's stream-lo key (trial << 20 | seq — the exact
  // occurrence_stream key) in batches, then hand the whole batch to the
  // lane-parallel sampler. hi is constant per slot.
  const std::uint64_t hi = slot_hi_key(s);
  std::uint64_t lo[kFillBatch];
  TrialId t = t_first;
  for (std::uint64_t b = k_begin; b < k_end; b += kFillBatch) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kFillBatch, k_end - b));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = b + i;
      while (k >= s.hit_offsets[t + 1]) {
        ++t;
      }
      lo[i] = stream_lo_key(trial_base + t, s.seqs[k]);
    }
    s.sampler->sample_lanes(philox, hi, s.rows + b, lo, n, attachment_cut(s),
                            out + (b - k_begin), stats.sampler_fast, stats.sampler_tail,
                            stats.sampler_skipped);
  }
}

}  // namespace detail

}  // namespace riskan::core::batch

namespace riskan::core {

namespace {

/// Per-analysis mutable state while its group runs.
struct AnalysisRun {
  const finance::Portfolio* portfolio = nullptr;
  std::size_t result_index = 0;
  data::MultiResolution resolution;  // one entry per contract
  std::vector<SecondarySampler> samplers;
  std::vector<Money> occurrence_accum;  // entries-sized; empty when OEP off
  EngineResult result;
};

/// Runs one YELT group over a trial source: per block, a single streamed
/// pass serves every slot of every analysis in the group. The plan is
/// lowered on the first block and re-bound to each subsequent one; an
/// in-memory run is the one-block special case.
void run_group(std::span<AnalysisRun> group, data::TrialSource& source,
               const EngineConfig& config) {
  obs::Timer timer("engine.run");
  static const obs::Counter runs_counter =
      obs::MetricsRegistry::global().counter("engine.runs");
  static const obs::Histogram block_hist =
      obs::MetricsRegistry::global().histogram("engine.block_seconds");
  static const obs::Histogram resolve_hist =
      obs::MetricsRegistry::global().histogram("engine.resolve_seconds");
  runs_counter.add();
  const TrialId trials = source.trials();
  // Pool-free backends must stay off the pool end to end (single-thread
  // contract; the dist coordinator's in-process blocks run them from pool
  // workers, where blocking can deadlock).
  const ParallelConfig par_cfg =
      pool_free(config.backend)
          ? ParallelConfig{nullptr, std::numeric_limits<std::size_t>::max()}
          : ParallelConfig{config.pool, config.trial_grain};

  data::ResolverCache local_cache;
  data::ResolverCache& cache = resolver_cache_for(config, source, local_cache);

  // Output buffers are sized for the whole source up front; samplers are
  // pure functions of each contract's ELT, so both are block-invariant.
  for (AnalysisRun& run : group) {
    const finance::Portfolio& portfolio = *run.portfolio;

    run.result.portfolio_ylt = data::YearLossTable(trials, "portfolio");
    run.result.reinstatement_premium =
        data::YearLossTable(trials, "reinstatement-premium");
    if (config.keep_contract_ylts) {
      run.result.contract_ylts.reserve(portfolio.size());
      for (const auto& contract : portfolio.contracts()) {
        run.result.contract_ylts.emplace_back(trials,
                                              "contract-" + std::to_string(contract.id()));
      }
    }
    if (config.compute_oep) {
      run.result.portfolio_occurrence_ylt = data::YearLossTable(trials, "portfolio-oep");
    }

    if (config.secondary_uncertainty) {
      run.samplers.reserve(portfolio.size());
      for (const auto& contract : portfolio.contracts()) {
        run.samplers.emplace_back(contract.elt());
      }
    }
  }

  const Philox4x32 philox(config.seed);
  exec::ExecutionPlan plan;
  bool lowered = false;
  std::vector<batch::Slot> slots;

  for_each_trial_block(source, config, local_cache,
                       [&](const data::TrialBlock& block, TrialId base) {
    obs::Timer block_timer("engine.block");
    const data::YearEventLossTable& yelt = *block.yelt;
    const TrialId block_trials = yelt.trials();
    const auto yelt_offsets = yelt.offsets();

    // Per-block compact resolution of every contract's ELT, shared through
    // the cache.
    for (AnalysisRun& run : group) {
      const finance::Portfolio& portfolio = *run.portfolio;
      obs::Timer resolve_timer("engine.resolve");
      std::vector<const data::EventLossTable*> elts;
      elts.reserve(portfolio.size());
      for (const auto& contract : portfolio.contracts()) {
        elts.push_back(&contract.elt());
      }
      run.resolution = data::MultiResolution::build(elts, yelt, &cache, par_cfg);
      const double resolve_s = resolve_timer.stop();
      run.result.resolve_seconds += resolve_s;
      resolve_hist.observe(resolve_s);
      if (config.compute_oep) {
        run.occurrence_accum.assign(yelt.entries(), 0.0);
      }
    }

    // Flatten to slots (buffers were sized above, so the spans taken here
    // stay valid). The slot order — analyses, contracts, layers — is the
    // same every block, which is what lets the plan re-bind structurally.
    slots.clear();
    for (AnalysisRun& run : group) {
      const finance::Portfolio& portfolio = *run.portfolio;
      for (std::size_t c = 0; c < portfolio.size(); ++c) {
        const auto& contract = portfolio.contract(c);
        const auto& entry = run.resolution.entry(c);
        run.result.elt_lookups +=
            entry.compact->hits() * static_cast<std::uint64_t>(contract.layers().size());
        for (const auto& layer : contract.layers()) {
          batch::Slot slot = batch::make_slot(
              contract, layer, *entry.compact,
              config.secondary_uncertainty ? &run.samplers[c] : nullptr);
          slot.contract_losses =
              config.keep_contract_ylts
                  ? run.result.contract_ylts[c].mutable_losses().subspan(
                        block.trial_offset, block_trials)
                  : std::span<Money>{};
          slot.portfolio_losses = run.result.portfolio_ylt.mutable_losses().subspan(
              block.trial_offset, block_trials);
          slot.reinstatement_prem =
              run.result.reinstatement_premium.mutable_losses().subspan(
                  block.trial_offset, block_trials);
          slot.occurrence_accum =
              config.compute_oep ? run.occurrence_accum.data() : nullptr;
          slots.push_back(slot);
        }
      }
    }

    // The one streamed pass: every trial chunk is walked once, serving
    // every slot of every analysis in the group. Base slots are one
    // (contract, layer) each, so every gather group is a singleton here;
    // the scenario engine is the multi-slot-group consumer of the same
    // kernel. The plan / execute layer (src/core/exec.hpp) owns the
    // partitioning — Sequential runs inline, Threaded chunks trials on the
    // pool.
    if (!lowered) {
      EngineConfig lower_config = config;
      lower_config.trial_base = base;
      plan = exec::ExecutionPlan::lower(slots, yelt_offsets, block_trials, lower_config);
      lowered = true;
    } else {
      plan.rebind(slots, yelt_offsets, block_trials, base);
    }
    exec::execute(plan, philox, config);

    for (AnalysisRun& run : group) {
      if (config.compute_oep) {
        batch::finalize_oep(run.result.portfolio_occurrence_ylt.mutable_losses().subspan(
                                block.trial_offset, block_trials),
                            run.occurrence_accum, yelt_offsets, {});
      }
      run.result.occurrences_processed +=
          yelt.entries() * static_cast<std::uint64_t>(run.portfolio->layer_count());
    }
    block_hist.observe(block_timer.stop());
  });

  // The pass is shared, so each analysis reports the group's wall-clock —
  // the time it actually took to produce its result.
  const double seconds = timer.stop();
  for (AnalysisRun& run : group) {
    run.result.seconds = seconds;
  }
}

}  // namespace

PortfolioBatchRunner::PortfolioBatchRunner(EngineConfig config) : config_(config) {
  validate_engine_config(config_);
}

std::size_t PortfolioBatchRunner::add(const finance::Portfolio& portfolio,
                                      const data::YearEventLossTable& yelt) {
  RISKAN_REQUIRE(!portfolio.empty(), "portfolio must contain contracts");
  RISKAN_REQUIRE(yelt.trials() > 0, "YELT must contain trials");
  analyses_.push_back(Analysis{&portfolio, &yelt});
  return analyses_.size() - 1;
}

std::size_t PortfolioBatchRunner::group_count() const noexcept {
  std::vector<const data::YearEventLossTable*> seen;
  for (const Analysis& a : analyses_) {
    if (std::find(seen.begin(), seen.end(), a.yelt) == seen.end()) {
      seen.push_back(a.yelt);
    }
  }
  return seen.size();
}

std::vector<EngineResult> PortfolioBatchRunner::run() const {
  // One observation window for the whole batch; the shared report is
  // attached to every result (the pass is shared, so is its telemetry).
  obs::RunObsScope obs_scope(config_.obs);
  std::vector<EngineResult> results(analyses_.size());

  // Group analyses by YELT identity (in-run pointer identity — referents
  // are pinned by add()'s lifetime contract) so books sharing a table share
  // its streamed pass.
  std::vector<const data::YearEventLossTable*> group_yelts;
  std::vector<std::vector<AnalysisRun>> groups;
  for (std::size_t i = 0; i < analyses_.size(); ++i) {
    const Analysis& a = analyses_[i];
    std::size_t g = 0;
    while (g < group_yelts.size() && group_yelts[g] != a.yelt) {
      ++g;
    }
    if (g == group_yelts.size()) {
      group_yelts.push_back(a.yelt);
      groups.emplace_back();
    }
    AnalysisRun run;
    run.portfolio = a.portfolio;
    run.result_index = i;
    groups[g].push_back(std::move(run));
  }

  // The groups must not re-observe inside this window: run_group takes the
  // config as-is, so clear obs on the copy handed down.
  EngineConfig inner = config_;
  inner.obs = {};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    data::InMemorySource source(*group_yelts[g]);
    run_group(groups[g], source, inner);
    for (AnalysisRun& run : groups[g]) {
      results[run.result_index] = std::move(run.result);
    }
  }
  const auto report = obs_scope.finish();
  for (EngineResult& result : results) {
    result.obs_report = report;
  }
  return results;
}

EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 const data::YearEventLossTable& yelt,
                                 const EngineConfig& config) {
  data::InMemorySource source(yelt);
  return run_portfolio_batch(portfolio, source, config);
}

EngineResult run_portfolio_batch(const finance::Portfolio& portfolio,
                                 data::TrialSource& source, const EngineConfig& config) {
  validate_engine_config(config);
  RISKAN_REQUIRE(!portfolio.empty(), "portfolio must contain contracts");
  RISKAN_REQUIRE(source.trials() > 0, "trial source must contain trials");
  // Adaptive stopping wraps this very entry point: the driver re-enters it
  // per decision block with adaptivity cleared, so everything below runs
  // unchanged — bit-identically — whether the budget is fixed or adaptive.
  if (config.adaptive.enabled()) {
    return adaptive::run_adaptive_aggregate(portfolio, source, config);
  }
  obs::RunObsScope obs_scope(config.obs);
  AnalysisRun run;
  run.portfolio = &portfolio;
  EngineConfig inner = config;
  inner.obs = {};
  run_group({&run, 1}, source, inner);
  run.result.obs_report = obs_scope.finish();
  return std::move(run.result);
}

}  // namespace riskan::core
