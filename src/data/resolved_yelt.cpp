#include "data/resolved_yelt.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::data {

namespace {

/// Process-wide resolver telemetry: every ResolverCache instance (shared,
/// run-local, ephemeral) reports into the same counters, so the obs report
/// shows the run's total hit/miss/build picture regardless of which cache
/// served it.
obs::Counter resolver_hits() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter("resolver.hits");
  return c;
}

obs::Counter resolver_misses() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter("resolver.misses");
  return c;
}

obs::Histogram resolver_build_seconds() {
  static const obs::Histogram h =
      obs::MetricsRegistry::global().histogram("resolver.build_seconds");
  return h;
}

}  // namespace

ResolvedYelt ResolvedYelt::build(const EventLossTable& elt, const YearEventLossTable& yelt,
                                 ParallelConfig cfg) {
  RISKAN_REQUIRE(elt.size() < static_cast<std::size_t>(kNoLoss),
                 "ELT too large for uint32 row indices");

  ResolvedYelt resolved;
  resolved.rows_.resize(yelt.entries());

  const auto events = yelt.events();
  const auto ids = elt.event_ids();
  const auto lookup = elt.row_lookup();
  auto* out = resolved.rows_.data();
  RISKAN_DEBUG_ASSERT_ALIGNED(out);

  // Each chunk streams a contiguous slab of the events column and writes
  // the matching slab of the row column; chunk order never shows in the
  // output, so the build is deterministic under any scheduling. Tables
  // with a dense id range carry an O(1) event→row lookup (the hot path —
  // out-of-core runs resolve every block); sparse tables binary-search.
  // Both produce identical row indices.
  resolved.hits_ = parallel_reduce<std::uint64_t>(
      0, resolved.rows_.size(), 0,
      [&](std::size_t lo, std::size_t hi) {
        std::uint64_t found = 0;
        if (!lookup.empty()) {
          static_assert(EventLossTable::kNoRow == ResolvedYelt::kNoLoss);
          for (std::size_t i = lo; i < hi; ++i) {
            const EventId e = events[i];
            const std::uint32_t row = e < lookup.size() ? lookup[e] : kNoLoss;
            out[i] = row;
            found += row != kNoLoss ? 1 : 0;
          }
          return found;
        }
        for (std::size_t i = lo; i < hi; ++i) {
          const auto it = std::lower_bound(ids.begin(), ids.end(), events[i]);
          if (it != ids.end() && *it == events[i]) {
            out[i] = static_cast<std::uint32_t>(it - ids.begin());
            ++found;
          } else {
            out[i] = kNoLoss;
          }
        }
        return found;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, cfg);
  return resolved;
}

CompactResolvedYelt CompactResolvedYelt::build(const EventLossTable& elt,
                                               const YearEventLossTable& yelt,
                                               ParallelConfig cfg) {
  RISKAN_REQUIRE(elt.size() < static_cast<std::size_t>(ResolvedYelt::kNoLoss),
                 "ELT too large for uint32 row indices");

  CompactResolvedYelt compact;
  const TrialId trials = yelt.trials();
  compact.trial_offsets_.assign(static_cast<std::size_t>(trials) + 1, 0);

  const auto offsets = yelt.offsets();
  const auto events = yelt.events();

  // Both passes look each event up afresh rather than materialising an
  // occurrence-aligned row column between them: at a typical 10% catalogue
  // coverage that column would be ~5x the bytes of the compact output.
  // `row_of` is one of two lookups chosen once per build.
  const auto passes = [&](const auto& row_of) {
    // Pass 1: per-trial hit counts, streamed in parallel trial slabs.
    // Counts land in trial_offsets_[t + 1] so the exclusive prefix sum
    // below turns the vector into the CSR index in place. Each trial's
    // sequence numbers must fit the uint32 seqs column; a chunk that finds
    // one too long throws, and parallel_for rethrows it on the caller.
    auto* counts = compact.trial_offsets_.data();
    parallel_for(
        0, trials,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            RISKAN_REQUIRE(offsets[t + 1] - offsets[t] <=
                               std::numeric_limits<std::uint32_t>::max(),
                           "trial too large for uint32 occurrence sequence numbers");
            std::uint64_t found = 0;
            for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
              found += row_of(events[i]) != ResolvedYelt::kNoLoss ? 1 : 0;
            }
            counts[t + 1] = found;
          }
        },
        cfg);
    for (TrialId t = 0; t < trials; ++t) {
      counts[t + 1] += counts[t];
    }

    // Pass 2: fill the hit columns. Each trial writes its own CSR range,
    // so slabs never overlap and the output is scheduling-independent.
    compact.seqs_.resize(compact.trial_offsets_.back());
    compact.rows_.resize(compact.trial_offsets_.back());
    auto* seqs_out = compact.seqs_.data();
    auto* rows_out = compact.rows_.data();
    RISKAN_DEBUG_ASSERT_ALIGNED(counts);
    RISKAN_DEBUG_ASSERT_ALIGNED(seqs_out);
    RISKAN_DEBUG_ASSERT_ALIGNED(rows_out);
    parallel_for(
        0, trials,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            std::uint64_t k = counts[t];
            const std::uint64_t begin = offsets[t];
            for (std::uint64_t i = begin; i < offsets[t + 1]; ++i) {
              const std::uint32_t row = row_of(events[i]);
              if (row != ResolvedYelt::kNoLoss) {
                seqs_out[k] = static_cast<std::uint32_t>(i - begin);
                rows_out[k] = row;
                ++k;
              }
            }
          }
        },
        cfg);
  };

  // Tables with a dense id range carry an O(1) event→row lookup (the hot
  // path — out-of-core runs resolve every block); sparse tables
  // binary-search. Both produce identical row indices.
  const auto lookup = elt.row_lookup();
  if (!lookup.empty()) {
    static_assert(EventLossTable::kNoRow == ResolvedYelt::kNoLoss);
    passes([lookup](EventId e) {
      return e < lookup.size() ? lookup[e] : ResolvedYelt::kNoLoss;
    });
  } else {
    passes([&elt](EventId e) {
      const std::size_t row = elt.find(e);
      return row == EventLossTable::npos ? ResolvedYelt::kNoLoss
                                         : static_cast<std::uint32_t>(row);
    });
  }
  return compact;
}

MultiResolution MultiResolution::build(std::span<const EventLossTable* const> elts,
                                       const YearEventLossTable& yelt, ResolverCache* cache,
                                       ParallelConfig cfg) {
  ResolverCache& resolver = cache ? *cache : ResolverCache::shared();
  MultiResolution set;
  set.entries_.reserve(elts.size());
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "MultiResolution: null ELT");
    set.entries_.push_back(Entry{resolver.get_or_build_compact(*elt, yelt, cfg)});
  }
  return set;
}

ResolverCache::Key ResolverCache::make_key(const EventLossTable& elt,
                                           const YearEventLossTable& yelt) noexcept {
  Key key;
  key.elt_ids = elt.event_ids().data();
  key.yelt_events = yelt.events().data();
  key.elt_size = elt.size();
  key.yelt_entries = yelt.entries();
  key.yelt_trials = yelt.trials();

  // Strided content fingerprint: 16 samples from each table's id column,
  // mixed FNV-1a style. Guards the pointer identity above against
  // allocator address reuse (a freed table replaced by a different one at
  // the same address and shape).
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto ids = elt.event_ids();
  const auto events = yelt.events();
  constexpr std::size_t kSamples = 16;
  if (!ids.empty()) {
    const std::size_t stride = std::max<std::size_t>(1, ids.size() / kSamples);
    for (std::size_t i = 0; i < ids.size(); i += stride) {
      mix(ids[i]);
    }
    mix(ids.back());
  }
  if (!events.empty()) {
    const std::size_t stride = std::max<std::size_t>(1, events.size() / kSamples);
    for (std::size_t i = 0; i < events.size(); i += stride) {
      mix(events[i]);
    }
    mix(events.back());
  }
  key.fingerprint = h;
  return key;
}

std::shared_ptr<const CompactResolvedYelt> ResolverCache::insert_locked(
    const Key& key, std::shared_ptr<const CompactResolvedYelt> compact) {
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      return entry.compact;  // lost an insert race; keep the first build
    }
  }
  entries_.push_back(Entry{key, std::move(compact)});
  bytes_ += entries_.back().compact->byte_size();
  auto value = entries_.back().compact;
  evict_locked();
  return value;
}

void ResolverCache::evict_locked() {
  // FIFO eviction under both bounds; the newest entry always survives so a
  // single oversized resolution is still served from the cache.
  while (entries_.size() > 1 &&
         (entries_.size() > kMaxEntries || bytes_ > kMaxBytes)) {
    bytes_ -= entries_.front().compact->byte_size();
    entries_.erase(entries_.begin());
  }
}

std::shared_ptr<const CompactResolvedYelt> ResolverCache::get_or_build_compact(
    const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg) {
  const Key key = make_key(elt, yelt);
  {
    std::lock_guard lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        resolver_hits().add();
        return entry.compact;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  resolver_misses().add();

  // Build outside the lock: a concurrent miss on the same key builds a
  // duplicate (equivalent) resolution rather than serialising the pool.
  obs::Timer build_timer("resolver.build");
  auto built =
      std::make_shared<const CompactResolvedYelt>(CompactResolvedYelt::build(elt, yelt, cfg));
  resolver_build_seconds().observe(build_timer.stop());

  std::lock_guard lock(mutex_);
  return insert_locked(key, std::move(built));
}

std::size_t ResolverCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t ResolverCache::byte_size() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

void ResolverCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  bytes_ = 0;
}

ResolverCache& ResolverCache::shared() {
  static ResolverCache cache;
  return cache;
}

}  // namespace riskan::data
