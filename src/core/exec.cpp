#include "core/exec.hpp"

#include <algorithm>
#include <mutex>

#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {

namespace {

/// Per-backend dispatch telemetry: one execution count plus one duration
/// histogram per backend, all in the global registry (near-zero cost when
/// obs is disabled). The Timer doubles as the trace span emitter.
struct ExecObs {
  obs::Counter executions;
  obs::Histogram seconds;

  explicit ExecObs(const char* backend)
      : executions(obs::MetricsRegistry::global().counter(std::string("exec.") + backend +
                                                          ".executions")),
        seconds(obs::MetricsRegistry::global().histogram(std::string("exec.") + backend +
                                                         ".seconds")) {}
};

/// Per-slot invariants shared by lower() and rebind(): every slot carries
/// its gather columns, and the sampling/means inputs match the secondary
/// setting.
void validate_slots(std::span<const batch::Slot> slots, TrialId trials, bool secondary) {
  for (const batch::Slot& s : slots) {
    RISKAN_REQUIRE(s.elt != nullptr, "slot needs its gather ELT");
    RISKAN_REQUIRE(s.hit_offsets != nullptr, "slot needs its CSR index");
    RISKAN_REQUIRE((s.seqs != nullptr && s.rows != nullptr) || s.hit_offsets[trials] == 0,
                   "slot needs seq and row columns");
    RISKAN_REQUIRE(!secondary || s.sampler != nullptr,
                   "secondary sampling needs a per-slot sampler");
    RISKAN_REQUIRE(s.means != nullptr || secondary, "means-path slot needs ELT means");
  }
}

/// Publishes one execution's vector-kernel lane utilization and dispatched
/// width as exec.simd.*.
void publish(const SimdDispatch& dispatch, const batch::SimdStats& stats) {
  static const obs::Gauge width_gauge = obs::MetricsRegistry::global().gauge("exec.simd.width");
  static const obs::Counter vector_occ =
      obs::MetricsRegistry::global().counter("exec.simd.vector_occurrences");
  static const obs::Counter tail_occ =
      obs::MetricsRegistry::global().counter("exec.simd.tail_occurrences");
  static const obs::Counter scalar_occ =
      obs::MetricsRegistry::global().counter("exec.simd.scalar_occurrences");
  static const obs::Counter sampler_fast =
      obs::MetricsRegistry::global().counter("exec.simd.sampler.fast");
  static const obs::Counter sampler_tail =
      obs::MetricsRegistry::global().counter("exec.simd.sampler.tail");
  static const obs::Counter sampler_skipped =
      obs::MetricsRegistry::global().counter("exec.simd.sampler.skipped");
  width_gauge.set(dispatch.width);
  vector_occ.add(static_cast<double>(stats.vector_occurrences));
  tail_occ.add(static_cast<double>(stats.tail_occurrences));
  scalar_occ.add(static_cast<double>(stats.scalar_occurrences));
  sampler_fast.add(static_cast<double>(stats.sampler_fast));
  sampler_tail.add(static_cast<double>(stats.sampler_tail));
  sampler_skipped.add(static_cast<double>(stats.sampler_skipped));
}

}  // namespace

ExecutionPlan ExecutionPlan::lower(std::span<const batch::Slot> slots,
                                   std::span<const std::uint64_t> yelt_offsets,
                                   TrialId trials, const EngineConfig& config) {
  RISKAN_REQUIRE(!slots.empty(), "execution plan needs at least one slot");
  ExecutionPlan plan;
  plan.slots = slots;
  plan.yelt_offsets = yelt_offsets;
  plan.trials = trials;
  plan.trial_base = config.trial_base;
  plan.secondary = config.secondary_uncertainty;

  validate_slots(slots, trials, plan.secondary);

  plan.groups = batch::group_slots(slots);
  plan.group_elts.reserve(plan.groups.size());
  for (const batch::Group& g : plan.groups) {
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, g.size);
    plan.group_elts.push_back(slots[g.begin].elt);
  }
  return plan;
}

void ExecutionPlan::rebind(std::span<const batch::Slot> new_slots,
                           std::span<const std::uint64_t> new_yelt_offsets,
                           TrialId new_trials, TrialId new_trial_base) {
  RISKAN_REQUIRE(new_slots.size() == slots.size(),
                 "rebind requires the lowered slot-list shape");
  validate_slots(new_slots, new_trials, secondary);

  const auto new_groups = batch::group_slots(new_slots);
  RISKAN_REQUIRE(new_groups.size() == groups.size(),
                 "rebind changed the gather-group structure");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(new_groups[g].begin == groups[g].begin &&
                       new_groups[g].size == groups[g].size,
                   "rebind changed the gather-group structure");
    RISKAN_REQUIRE(new_slots[groups[g].begin].elt == group_elts[g],
                   "rebind changed a gather group's table");
  }

  slots = new_slots;
  yelt_offsets = new_yelt_offsets;
  trials = new_trials;
  trial_base = new_trial_base;
}

void execute(const ExecutionPlan& plan, const Philox4x32& philox, const EngineConfig& config) {
  static const ExecObs sequential_metrics("sequential");
  static const ExecObs threaded_metrics("threaded");
  const bool threaded = config.backend == Backend::Threaded;
  const ExecObs& metrics = threaded ? threaded_metrics : sequential_metrics;
  obs::Timer timer(threaded ? "exec.threaded" : "exec.sequential");

  const SimdDispatch dispatch = simd_dispatch();
  std::mutex stats_mutex;
  batch::SimdStats stats;
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    std::vector<Money> scratch(plan.max_group_size);
    if (dispatch.kernel == nullptr) {
      batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                            plan.trial_base, static_cast<TrialId>(lo),
                            static_cast<TrialId>(hi), scratch);
      return;
    }
    batch::SimdStats range_stats;
    dispatch.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                    plan.trial_base, static_cast<TrialId>(lo), static_cast<TrialId>(hi),
                    scratch, range_stats);
    const std::lock_guard lock(stats_mutex);
    stats += range_stats;
  };
  if (threaded) {
    parallel_for(0, plan.trials, run_range, ParallelConfig{config.pool, config.trial_grain});
  } else {
    run_range(0, plan.trials);
  }
  if (dispatch.kernel != nullptr) {
    publish(dispatch, stats);
  }
  metrics.executions.add();
  metrics.seconds.observe(timer.stop());
}

}  // namespace riskan::core::exec
