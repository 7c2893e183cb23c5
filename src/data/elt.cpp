#include "data/elt.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace riskan::data {

EventLossTable EventLossTable::from_rows(std::vector<EltRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const EltRow& a, const EltRow& b) { return a.event_id < b.event_id; });
  for (std::size_t i = 1; i < rows.size(); ++i) {
    RISKAN_REQUIRE(rows[i].event_id != rows[i - 1].event_id,
                   "duplicate event id in ELT; merge rows upstream");
  }

  EventLossTable table;
  table.event_ids_.reserve(rows.size());
  table.mean_.reserve(rows.size());
  table.sigma_.reserve(rows.size());
  table.exposure_.reserve(rows.size());
  for (const auto& row : rows) {
    RISKAN_REQUIRE(std::isfinite(row.mean_loss) && std::isfinite(row.sigma_loss) &&
                       std::isfinite(row.exposure),
                   "ELT mean, sigma and exposure must be finite");
    RISKAN_REQUIRE(row.mean_loss >= 0.0, "ELT mean loss must be non-negative");
    RISKAN_REQUIRE(row.sigma_loss >= 0.0, "ELT sigma must be non-negative");
    RISKAN_REQUIRE(row.exposure >= row.mean_loss,
                   "ELT exposure (max loss) must dominate the mean");
    table.event_ids_.push_back(row.event_id);
    table.mean_.push_back(row.mean_loss);
    table.sigma_.push_back(row.sigma_loss);
    table.exposure_.push_back(row.exposure);
  }

  // Dense event→row lookup, built once at table construction when the id
  // range is compact enough (bounded blowup: at most 64 lookup slots — 256
  // bytes — per row, or the 4096-slot floor for small tables). Catalogue
  // ids are dense in practice; sparse/hashed id spaces fall back to find().
  if (!table.event_ids_.empty()) {
    const std::uint64_t span64 = static_cast<std::uint64_t>(table.event_ids_.back()) + 1;
    const std::uint64_t budget =
        std::max<std::uint64_t>(4096, 64 * static_cast<std::uint64_t>(rows.size()));
    if (span64 <= budget) {
      table.row_lookup_.assign(static_cast<std::size_t>(span64), kNoRow);
      for (std::size_t r = 0; r < table.event_ids_.size(); ++r) {
        table.row_lookup_[table.event_ids_[r]] = static_cast<std::uint32_t>(r);
      }
    }
  }
  RISKAN_DEBUG_ASSERT_ALIGNED(table.event_ids_.data());
  RISKAN_DEBUG_ASSERT_ALIGNED(table.mean_.data());
  RISKAN_DEBUG_ASSERT_ALIGNED(table.sigma_.data());
  RISKAN_DEBUG_ASSERT_ALIGNED(table.exposure_.data());
  return table;
}

std::size_t EventLossTable::find(EventId event) const noexcept {
  const auto it = std::lower_bound(event_ids_.begin(), event_ids_.end(), event);
  if (it == event_ids_.end() || *it != event) {
    return npos;
  }
  return static_cast<std::size_t>(it - event_ids_.begin());
}

EltRow EventLossTable::row(std::size_t index) const {
  RISKAN_REQUIRE(index < size(), "ELT row index out of range");
  return EltRow{event_ids_[index], mean_[index], sigma_[index], exposure_[index]};
}

Money EventLossTable::total_mean_loss() const noexcept {
  Money total = 0.0;
  for (const Money m : mean_) {
    total += m;
  }
  return total;
}

std::size_t EventLossTable::byte_size() const noexcept {
  return event_ids_.size() * sizeof(EventId) + mean_.size() * sizeof(Money) +
         sigma_.size() * sizeof(Money) + exposure_.size() * sizeof(Money);
}

}  // namespace riskan::data
