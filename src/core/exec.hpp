// Execution plans and the one execute function — how every stage-2 request
// reaches the one trial kernel.
//
// The repo's aggregate-analysis entry points (engine run, multi-book
// runner, scenario sweep, MapReduce map task, pricer run_layer) all
// reduce to the same question: given a finished list of batch::Slots over
// one YELT, run core::batch::process_trials over [0, trials). This layer
// separates the two halves:
//
//   ExecutionPlan — the lowered form of a request: the slot list, its
//       shared-gather groups, scratch sizing and the trial partition
//       inputs. Lowering is backend-independent.
//
//   execute — runs a plan for Sequential or Threaded, which differ only
//       in scheduling: Sequential runs the whole range inline on the
//       caller's thread and never touches a pool (the dist coordinator's
//       in-process blocks run it from pool workers and rely on this);
//       Threaded runs parallel_for over trial chunks cut by occurrences
//       (EngineConfig::trial_grain, when set, fixes the trials per chunk).
//       Either way each range runs the vectorized kernel
//       (core/batch_simd.hpp) on the runtime-dispatched ISA
//       (core/simd.hpp), or the scalar batch::process_trials when no wide
//       ISA is available or RISKAN_SIMD=off.
//
// Scheduling changes only where ranges run — never values. A plan's
// outputs are bit-identical across backends (the engine's determinism
// contract; tests enforce).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "data/elt.hpp"
#include "util/prng.hpp"

namespace riskan::core::exec {

/// The lowered form of one stage-2 request, ready for execute. Holds views
/// into caller-owned slot storage and output buffers; the plan itself owns
/// only the derived structures (groups and their gather tables).
struct ExecutionPlan {
  std::span<const batch::Slot> slots;
  std::span<const std::uint64_t> yelt_offsets;
  TrialId trials = 0;
  TrialId trial_base = 0;
  bool secondary = false;

  /// Maximal shared-gather runs of `slots` (batch::group_slots).
  std::vector<batch::Group> groups;
  /// Slots in the largest group — per-chunk annual-scratch sizing.
  std::size_t max_group_size = 0;
  /// Group index → the ELT its slots gather from.
  std::vector<const data::EventLossTable*> group_elts;

  /// Lowers a finished slot list: validates each slot's gather and
  /// sampling inputs, groups slots and sizes scratch.
  static ExecutionPlan lower(std::span<const batch::Slot> slots,
                             std::span<const std::uint64_t> yelt_offsets, TrialId trials,
                             const EngineConfig& config);

  /// Re-binds a lowered plan to a new trial block of the *same* request:
  /// the slot list must keep the length, grouping structure and ELT
  /// tables it was lowered with — only the gather/output pointers, the
  /// trial range and the sampling stream base change. Groups and scratch
  /// sizing are structural, so they carry over. This is what makes
  /// out-of-core execution "lower once, re-bind per block" instead of
  /// re-planning per block.
  void rebind(std::span<const batch::Slot> new_slots,
              std::span<const std::uint64_t> new_yelt_offsets, TrialId new_trials,
              TrialId new_trial_base);
};

/// Runs the plan's full trial range through the trial kernel, inline
/// (Sequential) or over the config's pool and trial_grain (Threaded).
void execute(const ExecutionPlan& plan, const Philox4x32& philox, const EngineConfig& config);

}  // namespace riskan::core::exec
