// The adaptive block driver — how an entry point runs "until converged".
//
// run_adaptive_aggregate re-cuts any TrialSource onto the adaptive
// decision grid (data::ReblockedSource), runs each grid block through the
// *normal* entry point with adaptivity cleared and the block's offset
// moved onto EngineConfig::trial_base (so every loss is bit-identical to
// the same trial of a full fixed-budget run), folds the block's YLT
// partials into a ConvergenceController, and stops early once the
// monitored metrics converge. Outputs are the converged prefix: the YLTs
// are truncated to the stopping trial count and EngineResult::adaptive
// carries the report.
//
// The detail helpers are shared with the scenario sweep's adaptive path
// (scenario/sweep.cpp), which drives the same loop over
// run_scenario_sweep per block.
#pragma once

#include "core/aggregate_engine.hpp"

namespace riskan::data {
class TrialSource;
}

namespace riskan::core::adaptive {

/// Adaptive counterpart of run_aggregate_analysis over a source; called by
/// the engine entry points when config.adaptive is enabled (never call
/// with it disabled). Honours backends, OEP, contract YLTs — each block
/// runs the exact non-adaptive path.
EngineResult run_adaptive_aggregate(const finance::Portfolio& portfolio,
                                    data::TrialSource& source,
                                    const EngineConfig& config);

namespace detail {

/// Shapes `out`'s per-trial tables like `proto`'s (same labels, same
/// contract set, same OEP presence) but sized for `trials` trials.
void init_result_shapes(const EngineResult& proto, TrialId trials, EngineResult& out);

/// Copies one block result's per-trial outputs into `out` at trial
/// `offset` and accumulates its counters/telemetry.
void copy_block_result(const EngineResult& block, TrialId offset, EngineResult& out);

/// Truncates every per-trial table of `result` to `trials` (the stop).
void truncate_result(EngineResult& result, TrialId trials);

}  // namespace detail

}  // namespace riskan::core::adaptive
