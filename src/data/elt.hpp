// Event-Loss Table (ELT) — the output of stage 1 (catastrophe modelling)
// and the per-contract loss lookup of stage 2 (aggregate analysis).
//
// An ELT row gives, for one stochastic event, the expected loss to one
// contract's exposure together with the spread used for secondary
// uncertainty: (event_id, mean_loss, sigma_loss, exposure_limit).
//
// Layout is struct-of-arrays sorted by event id: the aggregate engines
// pre-join it to the YELT once per contract (data::ResolvedYelt — the
// sorted order makes the pre-join a cheap streamed binary-search pass, and
// the trial kernels then gather rows by direct index), the device engine
// uploads the arrays to simulated constant memory, and the scan kernels
// stream it — all want columnar contiguity, which is exactly the "small
// number of very large tables ... streamed by independent processes"
// organisation the paper prescribes for stage 1 outputs. find() remains
// the reference per-occurrence lookup for the resolver-off path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned.hpp"
#include "util/types.hpp"

namespace riskan::data {

/// One ELT row (used by builders and row-oriented baselines; the table
/// itself stores columns).
struct EltRow {
  EventId event_id = 0;
  Money mean_loss = 0.0;
  Money sigma_loss = 0.0;
  /// Maximum possible loss for the event (exposed limit); the support of
  /// the secondary-uncertainty beta distribution.
  Money exposure = 0.0;
};

class EventLossTable {
 public:
  EventLossTable() = default;

  /// Builds from rows; sorts by event id and rejects duplicates.
  static EventLossTable from_rows(std::vector<EltRow> rows);

  std::size_t size() const noexcept { return event_ids_.size(); }
  bool empty() const noexcept { return event_ids_.empty(); }

  std::span<const EventId> event_ids() const noexcept { return event_ids_; }
  std::span<const Money> mean_loss() const noexcept { return mean_; }
  std::span<const Money> sigma_loss() const noexcept { return sigma_; }
  std::span<const Money> exposure() const noexcept { return exposure_; }

  /// Index of the event in the table, or npos when the event causes no loss
  /// to this contract. O(log n) binary search — the resolver's lookup for
  /// tables without a row_lookup().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(EventId event) const noexcept;

  /// Sentinel row in row_lookup(): the event is not in the table.
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  /// Dense event→row lookup covering [0, max event id]: row_lookup()[e] is
  /// the row of event e, or kNoRow. Built by from_rows when the id range is
  /// dense enough to be worth the memory (max id + 1 <= max(4096, 64 x
  /// rows)); empty otherwise, and callers fall back to find(). This is what
  /// makes event→row resolution O(1) per occurrence — the out-of-core path
  /// re-resolves every block, so it is resolution's hot path.
  std::span<const std::uint32_t> row_lookup() const noexcept { return row_lookup_; }

  /// Row view at index (bounds-checked by contract).
  EltRow row(std::size_t index) const;

  /// Sum of mean losses (the contract's annual expected ground-up loss
  /// given one occurrence of every catalogue event — used by sanity tests).
  Money total_mean_loss() const noexcept;

  /// Bytes occupied by the columns (capacity excluded); feeds the E1/E4
  /// accounting and the device-engine chunk planner.
  std::size_t byte_size() const noexcept;

 private:
  // SoA columns — 64-byte aligned (mean_ is the vector kernels' gather base).
  util::AlignedVector<EventId> event_ids_;
  util::AlignedVector<Money> mean_;
  util::AlignedVector<Money> sigma_;
  util::AlignedVector<Money> exposure_;
  util::AlignedVector<std::uint32_t> row_lookup_;  // empty when ids are too sparse
};

}  // namespace riskan::data
