// Configuration, fault injection and telemetry of the multi-process
// distribution runtime (src/dist/coordinator.hpp).
//
// DistConfig is validated up front by validate_dist_config — nonsensical
// knobs (zero lease, unbounded workers, inverted backoff) are a
// ContractViolation before any process forks, mirroring
// core::validate_engine_config.
//
// FaultPlan is the recovery test matrix's steering wheel: it makes a chosen
// worker crash, stall, or damage its reply at a chosen task, so the tests
// can prove — not hope — that the coordinator's retry/re-queue machinery
// reproduces the single-process YLT bit-for-bit under every failure mode.
// Injection happens inside the worker child after the fork, so the parent
// coordinator only ever sees the failure's *symptom* (EOF, bad CRC, silent
// lease expiry), exactly as it would from a real fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace riskan::dist {

/// One targeted fault: fires in worker `worker` (the spawn-order index;
/// respawned replacements get fresh indices, so a one-shot fault does not
/// re-trigger) while handling its `at_task`-th task (1-based). worker < 0
/// disarms the injection.
struct FaultInjection {
  int worker = -1;
  int at_task = 1;

  bool fires(int worker_index, int task_number) const noexcept {
    return worker >= 0 && worker_index == worker && task_number == at_task;
  }
};

struct FaultPlan {
  /// _exit mid-task after the Ack, before any reply — a hard crash.
  FaultInjection crash;
  /// Flip one payload byte of the Result frame *after* its CRC is computed
  /// — corruption on the wire, caught by the receiver's CRC check.
  FaultInjection corrupt;
  /// Sleep `stall_seconds` before computing — a straggler whose lease
  /// expires and whose block is re-executed elsewhere (its late duplicate
  /// result must be discarded).
  FaultInjection stall;
  double stall_seconds = 1.0;
  /// Write only half of the Result frame, then _exit — a torn write.
  FaultInjection torn;
  /// Every spawn fails, as if fork() were refused — drives the graceful
  /// degradation to the in-process path.
  bool fail_spawn = false;
  /// Every worker crashes on every task — drives the bounded retry budget
  /// into DistError.
  bool crash_every_task = false;
};

struct DistConfig {
  /// Worker processes. 0 = run in-process (no forking at all).
  std::size_t workers = 4;
  /// Lease per assigned block: a worker must Ack (and finish) within this
  /// window or the block is re-queued and the worker treated as a
  /// straggler.
  double lease_seconds = 5.0;
  /// Total assignments any one block may consume before the job fails with
  /// DistError (the bounded attempt budget; >= 1).
  int max_attempts = 5;
  /// Exponential backoff between a block's failures: the n-th re-queue
  /// waits initial * 2^(n-1), capped at max.
  double backoff_initial_seconds = 0.02;
  double backoff_max_seconds = 2.0;
  /// Replacement workers the coordinator may fork over the job's lifetime
  /// (beyond the initial `workers`); when the budget is gone and every
  /// worker is dead, remaining blocks run in-process.
  std::size_t max_respawns = 8;
  FaultPlan faults;
};

/// Cross-field sanity of `config`, up front, with ContractViolation —
/// mirrors core::validate_engine_config. Bounds: workers <= 256,
/// 0 < lease <= 3600s, 1 <= max_attempts <= 1000, backoff_initial >= 0,
/// backoff_initial <= backoff_max <= 3600s, max_respawns <= 4096,
/// stall_seconds >= 0.
void validate_dist_config(const DistConfig& config);

/// Telemetry of one distributed run — the robustness ledger. Under an
/// injected fault the recovery tests assert the relevant counters moved
/// (retries happened, leases expired, duplicates were discarded) *and* the
/// final YLT is bit-identical anyway.
struct DistStats {
  std::size_t workers_spawned = 0;    ///< initial forks that succeeded
  std::size_t workers_respawned = 0;  ///< replacement forks
  std::size_t worker_deaths = 0;      ///< EOF / torn stream / kill observed
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_assigned = 0;  ///< task frames successfully sent
  std::uint64_t blocks_retried = 0;   ///< failure re-queues
  std::uint64_t leases_expired = 0;
  std::uint64_t corrupt_frames = 0;   ///< CRC mismatches + torn frames seen
  std::uint64_t worker_errors = 0;    ///< Error frames received
  std::uint64_t duplicates_discarded = 0;  ///< late results for done blocks
  /// Blocks never folded because the adaptive controller converged first —
  /// every block past the stopping frontier, whether it was un-issued,
  /// in flight or had already landed, so the count depends only on where
  /// the run stopped. Un-issued ones are dropped from the queue, in-flight
  /// ones are left to land as discarded duplicates. Zero on non-adaptive
  /// runs.
  std::uint64_t blocks_cancelled = 0;
  std::uint64_t task_bytes_sent = 0;
  std::uint64_t bytes_resent = 0;     ///< task bytes of re-queued sends
  std::uint64_t result_bytes_received = 0;
  std::uint64_t blocks_run_in_process = 0;  ///< fallback-path completions
  int max_attempts_observed = 0;      ///< most assignments any block took
  bool fell_back_in_process = false;
};

/// A distributed job that could not complete: some block exhausted its
/// attempt budget (and the in-process fallback was not applicable, e.g.
/// because the data itself is bad on every replay).
class DistError : public std::runtime_error {
 public:
  explicit DistError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace riskan::dist
