// Streaming aggregate analysis — stage 2 with bounded memory.
//
// The paper's approach (i) accumulates "large quantities of physical
// memory to support in-memory analytics on large but not enormous datasets
// (less than 1TB)". When the YELT is enormous — a 50M-trial view does not
// fit a node — the same engine streams it: the YELT lives on disk as a
// chunked file of trial blocks (data::ChunkedFileSource), and the run rides
// the exact execution machinery of the in-memory engine — the plan is
// lowered once and re-bound per block — while a background prefetch
// pipeline reads and decodes block c+1 as block c computes. Memory
// high-water = the pipeline's decoded blocks plus the output YLTs, and the
// output is bit-identical to the in-memory run (tested) with every engine
// feature available: all backends (Sequential/Threaded/DeviceSim),
// per-contract YLTs, OEP and reinstatement premium.
// Scenario sweeps stream the same way via scenario::run_scenario_sweep's
// TrialSource overload.
#pragma once

#include <cstdint>
#include <string>

#include "core/aggregate_engine.hpp"
#include "data/yelt.hpp"

namespace riskan::core {

struct StreamingResult : EngineResult {
  std::uint64_t bytes_read = 0;
  std::size_t blocks = 0;
  /// Largest single encoded block read (bounded-memory accounting).
  std::size_t peak_block_bytes = 0;
  /// Time the compute side stalled waiting on the prefetch pipeline (~0
  /// when read+decode fully hides behind the trial kernel).
  double prefetch_wait_seconds = 0.0;
};

/// Writes `yelt` as a chunked file of `trials_per_chunk`-trial blocks —
/// the on-disk layout run_aggregate_streaming consumes. Trial blocks are
/// encoded by slicing the table's column spans directly (no per-trial
/// rebuild), and each chunk carries a CRC-32 verified on read. Returns
/// chunks written.
std::size_t save_yelt_chunked(const data::YearEventLossTable& yelt, const std::string& path,
                              TrialId trials_per_chunk);

/// Streams aggregate analysis over a chunked YELT file: a thin entry point
/// that opens a data::ChunkedFileSource (prefetch on) and lowers through
/// core::exec like every other run. `config` is honoured in full — all
/// backends, per-contract YLTs and OEP included — and the YLTs
/// are bit-identical to run_aggregate_analysis over the in-memory table.
StreamingResult run_aggregate_streaming(const finance::Portfolio& portfolio,
                                        const std::string& chunked_yelt_path,
                                        const EngineConfig& config = {});

}  // namespace riskan::core
