#include "core/exec.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "core/secondary.hpp"
#include "core/simd.hpp"
#include "obs/obs.hpp"
#include "parallel/device.hpp"
#include "parallel/parallel_for.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {

namespace {

/// Per-backend dispatch telemetry: one execution count plus one duration
/// histogram per executor kind, all in the global registry (near-zero cost
/// when obs is disabled). The Timer doubles as the trace span emitter.
struct ExecObs {
  obs::Counter executions;
  obs::Histogram seconds;

  explicit ExecObs(const char* backend)
      : executions(obs::MetricsRegistry::global().counter(std::string("exec.") + backend +
                                                          ".executions")),
        seconds(obs::MetricsRegistry::global().histogram(std::string("exec.") + backend +
                                                         ".seconds")) {}
};

bool same_source(const ExecutionPlan::Source& src, const batch::Slot& s) noexcept {
  return src.elt == s.elt && src.hit_offsets == s.hit_offsets && src.seqs == s.seqs &&
         src.rows == s.rows;
}

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

/// Packed ELT row as uploaded to simulated constant memory: event id, mean
/// (for secondary-off gathers) and the secondary-uncertainty parameters —
/// the per-gather unit of constant-memory traffic.
struct DeviceEltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  SecondarySampler::Param param;
};

// Approximate FLOP cost of one beta draw (two Marsaglia-Tsang gammas plus
// transforms) and of the per-occurrence layer terms; feeds the performance
// model only.
constexpr std::uint64_t kBetaFlops = 220;
constexpr std::uint64_t kOccTermFlops = 4;

/// Greedy constant-memory residency planning: walk the groups in slot
/// order, packing each new source's table (capped at device_elt_chunk_rows
/// rows when set) into the current chunk while the constant segment fits;
/// when a table does not fit alongside the current residents, close the
/// chunk (one launch each) and start the next. A table too large for an
/// empty segment is staged partially — its leading rows are resident, the
/// tail gathers from global memory.
void plan_device_chunks(ExecutionPlan& plan, const EngineConfig& config) {
  const std::size_t row_bytes = sizeof(DeviceEltRow);
  const std::size_t capacity = config.device_spec.const_mem_bytes;
  const std::size_t budget = capacity > 64 ? capacity - 64 : 0;
  // Each const_upload starts 16-byte aligned, so charge aligned sizes —
  // the sum then upper-bounds the arena's actual usage.
  const auto charge = [row_bytes](std::size_t rows) {
    return (rows * row_bytes + 15) & ~std::size_t{15};
  };

  ExecutionPlan::DeviceChunk cur;
  std::size_t cur_bytes = 0;
  const auto close = [&plan, &cur, &cur_bytes]() {
    if (cur.group_end > cur.group_begin) {
      plan.device_chunks.push_back(std::move(cur));
    }
    cur = ExecutionPlan::DeviceChunk{};
    cur_bytes = 0;
  };

  for (std::uint32_t g = 0; g < plan.groups.size(); ++g) {
    const std::uint32_t s = plan.group_source[g];
    const bool seen = std::any_of(cur.staged_rows.begin(), cur.staged_rows.end(),
                                  [s](const auto& e) { return e.first == s; });
    if (seen) {
      cur.group_end = g + 1;
      continue;
    }
    std::size_t want = plan.sources[s].elt->size();
    if (config.device_elt_chunk_rows > 0) {
      want = std::min(want, config.device_elt_chunk_rows);
    }
    if (cur.group_end > cur.group_begin && cur_bytes + charge(want) > budget) {
      close();
      cur.group_begin = g;
    }
    // Partial residency when the table exceeds even an empty segment;
    // shaving the alignment pad off the remainder keeps charge(want)
    // within it.
    const std::size_t avail = budget - cur_bytes;
    want = std::min(want, avail >= 15 ? (avail - 15) / row_bytes : 0);
    cur.staged_rows.emplace_back(s, want);
    cur_bytes += charge(want);
    cur.group_end = g + 1;
  }
  close();
}

class SequentialExecutor final : public Executor {
 public:
  void execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs metrics("sequential");
    obs::Timer timer("exec.sequential");
    std::vector<Money> scratch(plan.max_group_size);
    batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                          plan.trial_base, 0, plan.trials, scratch);
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
  }
};

class ThreadedExecutor final : public Executor {
 public:
  ThreadedExecutor(ThreadPool* pool, std::size_t grain) : pool_(pool), grain_(grain) {}

  void execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs metrics("threaded");
    obs::Timer timer("exec.threaded");
    parallel_for(
        0, plan.trials,
        [&](std::size_t lo, std::size_t hi) {
          std::vector<Money> scratch(plan.max_group_size);
          batch::process_trials(plan.slots, plan.groups, plan.yelt_offsets, philox,
                                plan.secondary, plan.trial_base, static_cast<TrialId>(lo),
                                static_cast<TrialId>(hi), scratch);
        },
        ParallelConfig{pool_, grain_});
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
  }

 private:
  ThreadPool* pool_;
  std::size_t grain_;
};

/// The vectorized trial kernel on the runtime-dispatched ISA
/// (core/batch_simd.hpp). Backend::Simd runs the whole range inline on the
/// caller's thread — pool-free, so it can substitute for Sequential
/// anywhere (dist workers use it); Backend::ThreadedSimd reuses the
/// Threaded trial-chunk partition with a per-chunk scratch set. Lane
/// utilization and the dispatched width are published as exec.simd.*.
class SimdExecutor final : public Executor {
 public:
  SimdExecutor(const EngineConfig& config, bool threaded)
      : pool_(config.pool),
        grain_(config.trial_grain),
        threaded_(threaded),
        dispatch_(simd_dispatch()) {}

  void execute(const ExecutionPlan& plan, const Philox4x32& philox) override {
    static const ExecObs simd_metrics("simd");
    static const ExecObs threaded_metrics("threaded-simd");
    static const obs::Gauge width_gauge =
        obs::MetricsRegistry::global().gauge("exec.simd.width");
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
    // validate_engine_config rejected unavailable dispatches at config
    // time; this guards executors constructed around it.
    RISKAN_REQUIRE(dispatch_.kernel != nullptr,
                   "Simd executor without a usable vector ISA");
    const ExecObs& metrics = threaded_ ? threaded_metrics : simd_metrics;
    obs::Timer timer(threaded_ ? "exec.threaded-simd" : "exec.simd");
    width_gauge.set(dispatch_.width);

    batch::SimdStats stats;
    if (!threaded_) {
      std::vector<Money> annual_scratch(plan.max_group_size);
      dispatch_.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox, plan.secondary,
                       plan.trial_base, 0, plan.trials, annual_scratch, stats);
    } else {
      std::mutex stats_mutex;
      parallel_for(
          0, plan.trials,
          [&](std::size_t lo, std::size_t hi) {
            std::vector<Money> annual_scratch(plan.max_group_size);
            batch::SimdStats chunk_stats;
            dispatch_.kernel(plan.slots, plan.groups, plan.yelt_offsets, philox,
                             plan.secondary, plan.trial_base, static_cast<TrialId>(lo),
                             static_cast<TrialId>(hi), annual_scratch, chunk_stats);
            const std::lock_guard lock(stats_mutex);
            stats += chunk_stats;
          },
          ParallelConfig{pool_, grain_});
    }
    vector_occ.add(static_cast<double>(stats.vector_occurrences));
    tail_occ.add(static_cast<double>(stats.tail_occurrences));
    scalar_occ.add(static_cast<double>(stats.scalar_occurrences));
    sampler_fast.add(static_cast<double>(stats.sampler_fast));
    sampler_tail.add(static_cast<double>(stats.sampler_tail));
    metrics.executions.add();
    metrics.seconds.observe(timer.stop());
  }

 private:
  ThreadPool* pool_;
  std::size_t grain_;
  bool threaded_;
  SimdDispatch dispatch_;
};

/// The GPU execution model: runs the same process_trials kernel inside
/// simulated device blocks, one launch per constant-memory residency chunk
/// of the plan, staging each block's slot column slices into shared memory
/// when they fit. Staged copies are what the kernel actually reads (values
/// are identical by construction, so outputs stay bit-exact); traffic is
/// metered per access class and converted to a modeled device time.
class DeviceSimExecutor final : public Executor {
 public:
  explicit DeviceSimExecutor(const EngineConfig& config)
      : device_(config.device_spec, config.pool),
        block_dim_(config.device_block_dim),
        info_(config.device_info) {}

  void execute(const ExecutionPlan& plan, const Philox4x32& philox) override;

 private:
  Device device_;
  int block_dim_;
  DeviceRunInfo* info_;
};

/// Adjusts a staged column pointer so that indexing with the *global*
/// offsets the kernel uses lands inside the block's staged slice (which
/// starts at global index `base`). Routed through uintptr_t: the biased
/// pointer is never dereferenced outside [base, base + slice).
template <typename T>
const T* rebase(const T* staged, std::uint64_t base) noexcept {
  return reinterpret_cast<const T*>(reinterpret_cast<std::uintptr_t>(staged) -
                                    static_cast<std::uintptr_t>(base) * sizeof(T));
}

void DeviceSimExecutor::execute(const ExecutionPlan& plan, const Philox4x32& philox) {
  static const ExecObs metrics("devicesim");
  obs::Timer exec_timer("exec.devicesim");
  const TrialId trials = plan.trials;
  const int block_dim = block_dim_;
  const int grid_dim = static_cast<int>((static_cast<std::uint64_t>(trials) + block_dim - 1) /
                                        static_cast<std::uint64_t>(block_dim));
  const auto yelt_offsets = plan.yelt_offsets;

  DeviceRunInfo scratch_info;
  DeviceRunInfo& info = info_ != nullptr ? *info_ : scratch_info;
  info.elt_chunks += plan.device_chunks.size();

  for (const ExecutionPlan::DeviceChunk& chunk : plan.device_chunks) {
    // Per-source resident row counts for this chunk (0 = fully global).
    std::vector<std::size_t> resident(plan.sources.size(), 0);
    device_.const_clear();
    for (const auto& [src, rows] : chunk.staged_rows) {
      resident[src] = rows;
      if (rows == 0) {
        continue;
      }
      // Upload the packed leading rows — real data in the real arena, so
      // the 64 KiB capacity contract is enforced exactly like CUDA's.
      const ExecutionPlan::Source& source = plan.sources[src];
      std::vector<DeviceEltRow> packed(rows);
      const auto ids = source.elt->event_ids();
      const auto means = source.elt->mean_loss();
      // Any slot of the source shares the sampler (same ELT); find one.
      const SecondarySampler* sampler = nullptr;
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        if (plan.group_source[g] == src) {
          sampler = plan.slots[plan.groups[g].begin].sampler;
          break;
        }
      }
      RISKAN_REQUIRE(!plan.secondary || sampler != nullptr,
                     "staged source has no slot in its residency chunk");
      for (std::size_t i = 0; i < rows; ++i) {
        packed[i].event_id = ids[i];
        packed[i].mean_loss = means[i];
        if (sampler != nullptr) {
          packed[i].param = sampler->param(i);
        }
      }
      (void)device_.const_upload(packed.data(), rows * sizeof(DeviceEltRow));
    }

    const std::uint32_t slot_lo = plan.groups[chunk.group_begin].begin;
    const batch::Group& last_group = plan.groups[chunk.group_end - 1];
    const std::uint32_t slot_hi = last_group.begin + last_group.size;

    std::vector<std::uint8_t> block_staged(static_cast<std::size_t>(grid_dim), 2);

    const auto stats = device_.launch_blocks(grid_dim, block_dim, [&](BlockContext& ctx) {
      const auto first =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(ctx.block_id()) * block_dim));
      const auto last =
          static_cast<TrialId>(std::min<std::uint64_t>(trials,
              static_cast<std::uint64_t>(first) + static_cast<std::uint64_t>(block_dim)));
      if (first >= last) {
        return;
      }

      // ---- Stage this block's hit-column slices into shared memory,
      // greedily in source order.
      std::vector<const std::uint32_t*> staged_seqs(plan.sources.size(), nullptr);
      std::vector<const std::uint32_t*> staged_rows(plan.sources.size(), nullptr);
      bool all_staged = true;
      for (const auto& [src, rows_resident] : chunk.staged_rows) {
        (void)rows_resident;
        const ExecutionPlan::Source& source = plan.sources[src];
        const std::uint64_t hit_lo = source.hit_offsets[first];
        const std::uint64_t n = source.hit_offsets[last] - hit_lo;
        const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(std::uint32_t);
        if (2 * bytes + ctx.shared_used() <= ctx.shared_capacity()) {
          if (n > 0) {
            auto* seqs = ctx.shared_alloc<std::uint32_t>(n);
            auto* rows = ctx.shared_alloc<std::uint32_t>(n);
            std::memcpy(seqs, source.seqs + hit_lo, bytes);
            std::memcpy(rows, source.rows + hit_lo, bytes);
            staged_seqs[src] = rebase(seqs, hit_lo);
            staged_rows[src] = rebase(rows, hit_lo);
          }
          ctx.meter_global_read(2 * bytes);
          ctx.meter_shared_write(2 * bytes);
        } else {
          all_staged = false;
        }
      }

      // ---- The one trial kernel, over this block's trial range. Slots are
      // copied with staged columns swapped in only when something actually
      // staged; spill blocks read the plan's slots in place.
      const bool anything_staged = ctx.shared_used() > 0;
      std::vector<Money> annual_scratch(plan.max_group_size);
      if (anything_staged) {
        std::vector<batch::Slot> local(plan.slots.begin() + slot_lo,
                                       plan.slots.begin() + slot_hi);
        std::vector<batch::Group> local_groups(plan.groups.begin() + chunk.group_begin,
                                               plan.groups.begin() + chunk.group_end);
        for (batch::Group& g : local_groups) {
          g.begin -= slot_lo;
        }
        for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
          const std::uint32_t src = plan.group_source[g];
          if (staged_seqs[src] == nullptr) {
            continue;
          }
          const batch::Group& group = plan.groups[g];
          for (std::uint32_t i = 0; i < group.size; ++i) {
            batch::Slot& s = local[group.begin + i - slot_lo];
            s.seqs = staged_seqs[src];
            s.rows = staged_rows[src];
          }
        }
        batch::process_trials(local, local_groups, yelt_offsets, philox, plan.secondary,
                              plan.trial_base, first, last, annual_scratch);
      } else {
        batch::process_trials(
            plan.slots,
            std::span<const batch::Group>(plan.groups)
                .subspan(chunk.group_begin, chunk.group_end - chunk.group_begin),
            yelt_offsets, philox, plan.secondary, plan.trial_base, first, last,
            annual_scratch);
      }

      // ---- Meter the gather/compute traffic analytically, per group.
      for (std::uint32_t g = chunk.group_begin; g < chunk.group_end; ++g) {
        const std::uint32_t src = plan.group_source[g];
        const ExecutionPlan::Source& source = plan.sources[src];
        const batch::Group& group = plan.groups[g];
        const std::size_t elt_rows = source.elt->size();
        const double frac =
            elt_rows == 0 ? 0.0
                          : static_cast<double>(std::min(resident[src], elt_rows)) /
                                static_cast<double>(elt_rows);
        const std::uint64_t hits = source.hit_offsets[last] - source.hit_offsets[first];
        const std::uint64_t col_bytes = hits * 2 * sizeof(std::uint32_t);
        if (staged_seqs[src] != nullptr) {
          ctx.meter_shared_read(col_bytes);
        } else {
          ctx.meter_global_read(col_bytes);
        }
        const auto row_traffic = hits * static_cast<std::uint64_t>(sizeof(DeviceEltRow));
        ctx.meter_const_read(static_cast<std::uint64_t>(frac * row_traffic));
        ctx.meter_global_read(row_traffic - static_cast<std::uint64_t>(frac * row_traffic));
        if (plan.secondary) {
          ctx.meter_flops(hits * kBetaFlops);
        }
        ctx.meter_flops(hits * kOccTermFlops * group.size);
        for (std::uint32_t i = 0; i < group.size; ++i) {
          const batch::Slot& s = plan.slots[group.begin + i];
          if (s.occurrence_accum != nullptr) {
            ctx.meter_global_write(hits * sizeof(Money));
          }
        }
        // Annual finish per trial with hits.
        std::uint64_t busy_trials = 0;
        for (TrialId t = first; t < last; ++t) {
          busy_trials += source.hit_offsets[t + 1] > source.hit_offsets[t] ? 1 : 0;
        }
        ctx.meter_flops(busy_trials * 6 * group.size);
        ctx.meter_global_write(busy_trials * 3 * sizeof(Money) * group.size);
      }

      block_staged[static_cast<std::size_t>(ctx.block_id())] = all_staged ? 1 : 0;
    });

    info.counters += stats.counters;
    info.modeled_seconds += stats.modeled_seconds;
    ++info.launches;
    for (const std::uint8_t staged : block_staged) {
      if (staged == 1) {
        ++info.shared_staged_blocks;
      } else if (staged == 0) {
        ++info.shared_spill_blocks;
      }
    }
  }
  metrics.executions.add();
  metrics.seconds.observe(exec_timer.stop());
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
  for (const batch::Group& g : plan.groups) {
    plan.max_group_size = std::max<std::size_t>(plan.max_group_size, g.size);
  }

  plan.group_source.reserve(plan.groups.size());
  for (const batch::Group& g : plan.groups) {
    const batch::Slot& lead = slots[g.begin];
    std::uint32_t src = 0;
    while (src < plan.sources.size() && !same_source(plan.sources[src], lead)) {
      ++src;
    }
    if (src == plan.sources.size()) {
      plan.sources.push_back(Source{lead.elt, lead.hit_offsets, lead.seqs, lead.rows});
    }
    plan.group_source.push_back(src);
  }

  if (config.backend == Backend::DeviceSim) {
    plan_device_chunks(plan, config);
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
    const batch::Slot& lead = new_slots[groups[g].begin];
    Source& src = sources[group_source[g]];
    RISKAN_REQUIRE(src.elt == lead.elt, "rebind changed a gather source's table");
    src.hit_offsets = lead.hit_offsets;
    src.seqs = lead.seqs;
    src.rows = lead.rows;
  }
  // Groups sharing a source must still share columns in the new block, or
  // the device's per-source staging would misattribute reads.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    RISKAN_REQUIRE(same_source(sources[group_source[g]], new_slots[groups[g].begin]),
                   "rebind broke gather-source sharing across groups");
  }

  slots = new_slots;
  yelt_offsets = new_yelt_offsets;
  trials = new_trials;
  trial_base = new_trial_base;
}

std::unique_ptr<Executor> make_executor(const EngineConfig& config) {
  switch (config.backend) {
    case Backend::Sequential:
      return std::make_unique<SequentialExecutor>();
    case Backend::Threaded:
      return std::make_unique<ThreadedExecutor>(config.pool, config.trial_grain);
    case Backend::DeviceSim:
      return std::make_unique<DeviceSimExecutor>(config);
    case Backend::Simd:
      return std::make_unique<SimdExecutor>(config, /*threaded=*/false);
    case Backend::ThreadedSimd:
      return std::make_unique<SimdExecutor>(config, /*threaded=*/true);
  }
  RISKAN_REQUIRE(false, "unknown backend");
  return nullptr;
}

}  // namespace riskan::core::exec
