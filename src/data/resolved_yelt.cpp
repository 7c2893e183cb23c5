#include "data/resolved_yelt.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "obs/obs.hpp"
#include "util/page_buffer.hpp"
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

namespace {

constexpr std::uint32_t kNoLoss = ResolvedYelt::kNoLoss;
static_assert(EventLossTable::kNoRow == kNoLoss);

/// Per-task write cursors of the fused pass: table j's next staged hit goes
/// to cursor[j][0] (its sequence number) and cursor[j][rows_gap] (its row).
struct Cursors {
  std::uint32_t** cursor;
  std::uint64_t rows_gap;
};

/// One table with a dense row_lookup — the pricer's quote. Every occurrence
/// is stored and the cursor advances only on a hit, so the loop has no
/// data-dependent branch.
struct OneDenseTable {
  std::span<const std::uint32_t> lookup;

  void operator()(EventId e, std::uint32_t seq, const Cursors& out) const noexcept {
    const std::uint32_t row = e < lookup.size() ? lookup[e] : kNoLoss;
    std::uint32_t*& cur = out.cursor[0];
    cur[0] = seq;
    cur[out.rows_gap] = row;
    cur += row != kNoLoss ? 1 : 0;
  }
};

/// Any set of tables, through their postings: each posting is a hit; each
/// sparse table is searched with find() and stored like the dense case.
struct PostedTables {
  std::span<const std::uint32_t> offsets;
  std::span<const EventPostings::Posting> entries;
  std::span<const std::uint32_t> sparse;
  const EventPostings& postings;

  explicit PostedTables(const EventPostings& p)
      : offsets(p.offsets()), entries(p.entries()), sparse(p.sparse()), postings(p) {}

  void operator()(EventId e, std::uint32_t seq, const Cursors& out) const noexcept {
    if (e + std::size_t{1} < offsets.size()) {
      for (std::uint32_t p = offsets[e]; p < offsets[e + 1]; ++p) {
        std::uint32_t*& cur = out.cursor[entries[p].table];
        cur[0] = seq;
        cur[out.rows_gap] = entries[p].row;
        ++cur;
      }
    }
    for (const std::uint32_t j : sparse) {
      const std::size_t found = postings.table(j).find(e);
      const std::uint32_t row =
          found == EventLossTable::npos ? kNoLoss : static_cast<std::uint32_t>(found);
      std::uint32_t*& cur = out.cursor[j];
      cur[0] = seq;
      cur[out.rows_gap] = row;
      cur += row != kNoLoss ? 1 : 0;
    }
  }
};

/// Trials [lo, hi) whose hits one fill task staged.
struct StagedRange {
  std::size_t lo;
  std::size_t hi;
};

}  // namespace

EventPostings::EventPostings(std::span<const EventLossTable* const> elts)
    : tables_(elts.begin(), elts.end()) {
  std::size_t span = 0;
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "resolver: null ELT");
    span = std::max(span, elt->row_lookup().size());
  }
  offsets_.assign(span + 1, 0);
  for (std::uint32_t j = 0; j < elts.size(); ++j) {
    if (elts[j]->row_lookup().empty()) {
      sparse_.push_back(j);
      continue;
    }
    for (const EventId e : elts[j]->event_ids()) {
      ++offsets_[e + 1];
    }
  }
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < span; ++e) {
    total += offsets_[e + 1];
    RISKAN_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
                   "resolver: too many postings for uint32 offsets");
    offsets_[e + 1] = static_cast<std::uint32_t>(total);
  }
  entries_.resize(offsets_[span]);
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t j = 0; j < elts.size(); ++j) {
    if (elts[j]->row_lookup().empty()) {
      continue;
    }
    const auto ids = elts[j]->event_ids();
    for (std::uint32_t r = 0; r < ids.size(); ++r) {
      entries_[next[ids[r]]++] = Posting{j, r};
    }
  }
}

bool EventPostings::built_from(std::span<const EventLossTable* const> elts) const noexcept {
  return std::equal(tables_.begin(), tables_.end(), elts.begin(), elts.end());
}

std::uint32_t* ResolveScratch::staging(std::size_t j, std::size_t words) {
  if (staging_.size() <= j) {
    staging_.resize(j + 1);
  }
  Buffer& buffer = staging_[j];
  if (buffer.words < words) {
    buffer.data = util::PageBuffer<std::uint32_t>(words);
    buffer.words = words;
  }
  return buffer.data.data();
}

std::vector<CompactResolvedYelt> CompactResolvedYelt::build(
    std::span<const EventLossTable* const> elts, const YearEventLossTable& yelt,
    ParallelConfig cfg, ResolveScratch* scratch) {
  static const obs::Histogram build_seconds =
      obs::MetricsRegistry::global().histogram("resolver.build_seconds");
  obs::Timer timer("resolver.build");
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "resolver: null ELT");
    RISKAN_REQUIRE(elt->size() < static_cast<std::size_t>(kNoLoss),
                   "ELT too large for uint32 row indices");
  }
  const std::size_t tables = elts.size();
  const TrialId trials = yelt.trials();
  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  const std::uint64_t entries = yelt.entries();

  std::vector<CompactResolvedYelt> out(tables);
  for (CompactResolvedYelt& compact : out) {
    compact.trial_offsets_.assign(static_cast<std::size_t>(trials) + 1, 0);
  }
  if (tables == 0 || trials == 0) {
    return out;
  }

  // Staging: table j stages its hits in a buffer of its own, sequence
  // numbers at [o, ...) and rows at [entries + o, ...) for a task whose
  // first occurrence is o. A table hits an occurrence at most once, so a
  // task never reaches the next task's region. The buffers are
  // uninitialised PageBuffers made on the calling thread (the scratch's,
  // or the build's own, released on return): only the pages the staged
  // hits touch become resident, and no pool worker's heap keeps them.
  std::vector<util::PageBuffer<std::uint32_t>> owned;
  std::vector<std::uint32_t*> region(tables);
  std::vector<std::uint64_t*> counts(tables);
  for (std::size_t j = 0; j < tables; ++j) {
    if (scratch != nullptr) {
      region[j] = scratch->staging(j, 2 * entries);
    } else {
      region[j] = owned.emplace_back(2 * entries).data();
    }
    counts[j] = out[j].trial_offsets_.data();
  }

  std::mutex ranges_mutex;
  std::vector<StagedRange> ranges;

  // The one streamed pass over the event column. Each task records, per
  // table and trial, the task-local running hit count in trial_offsets_[t +
  // 1]; each trial's sequence numbers must fit the uint32 seqs column, and
  // a task that finds one too long throws, which parallel_for rethrows on
  // the caller.
  const auto fill = [&](const auto& resolve) {
    parallel_for(
        0, trials,
        [&](std::size_t lo, std::size_t hi) {
          const std::uint64_t first = offsets[lo] - offsets[0];
          std::vector<std::uint32_t*> cursor(tables);
          for (std::size_t j = 0; j < tables; ++j) {
            cursor[j] = region[j] + first;
          }
          const Cursors cursors{cursor.data(), entries};
          for (std::size_t t = lo; t < hi; ++t) {
            const std::uint64_t begin = offsets[t];
            RISKAN_REQUIRE(offsets[t + 1] - begin <= std::numeric_limits<std::uint32_t>::max(),
                           "trial too large for uint32 occurrence sequence numbers");
            for (std::uint64_t i = begin; i < offsets[t + 1]; ++i) {
              resolve(events[i], static_cast<std::uint32_t>(i - begin), cursors);
            }
            for (std::size_t j = 0; j < tables; ++j) {
              counts[j][t + 1] = static_cast<std::uint64_t>(cursor[j] - (region[j] + first));
            }
          }
          const std::lock_guard lock(ranges_mutex);
          ranges.push_back(StagedRange{lo, hi});
        },
        cfg, offsets);
  };
  if (tables == 1 && !elts[0]->row_lookup().empty()) {
    fill(OneDenseTable{elts[0]->row_lookup()});
  } else if (scratch != nullptr && scratch->postings().built_from(elts)) {
    fill(PostedTables(scratch->postings()));
  } else {
    fill(PostedTables(EventPostings(elts)));
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const StagedRange& a, const StagedRange& b) { return a.lo < b.lo; });

  // Walking the tasks in trial order turns each task's last count global,
  // so a task's base is the count just before its first trial. Placement
  // then moves each (table, task) run of staged hits to its base and makes
  // the task's inner counts global, in one pass cut by hits so a small
  // block is placed inline. Runs write disjoint ranges, so the columns do
  // not depend on scheduling.
  const std::size_t runs = tables * ranges.size();
  std::vector<std::uint64_t> run_hits(runs + 1, 0);
  for (std::size_t j = 0; j < tables; ++j) {
    std::uint64_t* count = counts[j];
    for (const StagedRange& r : ranges) {
      count[r.hi] += count[r.lo];
    }
    out[j].seqs_.resize(count[trials]);
    out[j].rows_.resize(count[trials]);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      run_hits[j * ranges.size() + i] = run_hits[j * ranges.size()] + count[ranges[i].lo];
    }
    run_hits[(j + 1) * ranges.size()] = run_hits[j * ranges.size()] + count[trials];
  }
  parallel_for(
      0, runs,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t run = lo; run < hi; ++run) {
          const std::size_t j = run / ranges.size();
          const StagedRange& r = ranges[run % ranges.size()];
          std::uint64_t* count = counts[j];
          const std::uint64_t base = count[r.lo];
          const std::uint64_t hits = count[r.hi] - base;
          const std::uint32_t* staged = region[j] + (offsets[r.lo] - offsets[0]);
          std::copy_n(staged, hits, out[j].seqs_.data() + base);
          std::copy_n(staged + entries, hits, out[j].rows_.data() + base);
          if (base != 0) {
            for (std::size_t t = r.lo + 1; t < r.hi; ++t) {
              count[t] += base;
            }
          }
        }
      },
      ParallelConfig{cfg.pool, runs == 1 ? std::size_t{1} : cfg.grain}, run_hits);
  for ([[maybe_unused]] const CompactResolvedYelt& compact : out) {
    RISKAN_DEBUG_ASSERT_ALIGNED(compact.trial_offsets_.data());
    RISKAN_DEBUG_ASSERT_ALIGNED(compact.seqs_.data());
    RISKAN_DEBUG_ASSERT_ALIGNED(compact.rows_.data());
  }
  build_seconds.observe(timer.stop());
  return out;
}

MultiResolution MultiResolution::build(std::span<const EventLossTable* const> elts,
                                       const YearEventLossTable& yelt, ResolverCache* cache,
                                       ParallelConfig cfg, ResolveScratch* scratch) {
  ResolverCache& resolver = cache ? *cache : ResolverCache::shared();
  MultiResolution set;
  for (auto& compact : resolver.get_or_build(elts, yelt, cfg, scratch)) {
    set.entries_.push_back(Entry{std::move(compact)});
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

std::vector<std::shared_ptr<const CompactResolvedYelt>> ResolverCache::get_or_build(
    std::span<const EventLossTable* const> elts, const YearEventLossTable& yelt,
    ParallelConfig cfg, ResolveScratch* scratch) {
  std::vector<std::shared_ptr<const CompactResolvedYelt>> out(elts.size());
  std::vector<Key> keys;
  keys.reserve(elts.size());
  for (const EventLossTable* elt : elts) {
    RISKAN_REQUIRE(elt != nullptr, "resolver: null ELT");
    keys.push_back(make_key(*elt, yelt));
  }

  // Misses are the first request of each uncached key; a repeat of a key
  // in the same request is a hit on that build.
  std::vector<std::size_t> misses;
  std::vector<std::size_t> repeats;  // index of the request it repeats, per elt
  repeats.assign(elts.size(), elts.size());
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < elts.size(); ++i) {
      for (const Entry& entry : entries_) {
        if (entry.key == keys[i]) {
          out[i] = entry.compact;
          break;
        }
      }
      if (out[i] != nullptr) {
        continue;
      }
      for (const std::size_t m : misses) {
        if (keys[m] == keys[i]) {
          repeats[i] = m;
          break;
        }
      }
      if (repeats[i] == elts.size()) {
        misses.push_back(i);
      }
    }
    // A fused build holds every miss's columns (and their staging) before
    // any of them is inserted, so room for the largest output the misses
    // can have is made first: a full cache plus a book in flight would
    // otherwise exceed the byte bound by the whole book.
    const std::size_t worst = misses.size() * (static_cast<std::size_t>(yelt.trials()) + 1 +
                                               static_cast<std::size_t>(yelt.entries())) *
                              sizeof(std::uint64_t);
    while (!entries_.empty() && bytes_ + worst > kMaxBytes) {
      bytes_ -= entries_.front().compact->byte_size();
      entries_.erase(entries_.begin());
    }
  }
  const std::size_t hit_count = elts.size() - misses.size();
  hits_.fetch_add(hit_count, std::memory_order_relaxed);
  resolver_hits().add(static_cast<double>(hit_count));
  misses_.fetch_add(misses.size(), std::memory_order_relaxed);
  resolver_misses().add(static_cast<double>(misses.size()));
  if (misses.empty()) {
    return out;
  }

  // One fused build for every miss, outside the lock: a concurrent miss on
  // the same key builds a duplicate (equivalent) resolution rather than
  // serialising the pool.
  std::vector<const EventLossTable*> miss_elts;
  miss_elts.reserve(misses.size());
  for (const std::size_t m : misses) {
    miss_elts.push_back(elts[m]);
  }
  auto built = CompactResolvedYelt::build(miss_elts, yelt, cfg, scratch);

  std::lock_guard lock(mutex_);
  for (std::size_t b = 0; b < misses.size(); ++b) {
    out[misses[b]] = insert_locked(
        keys[misses[b]], std::make_shared<const CompactResolvedYelt>(std::move(built[b])));
  }
  for (std::size_t i = 0; i < elts.size(); ++i) {
    if (repeats[i] != elts.size()) {
      out[i] = out[repeats[i]];
    }
  }
  return out;
}

std::shared_ptr<const CompactResolvedYelt> ResolverCache::get_or_build_compact(
    const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg) {
  const EventLossTable* const one[] = {&elt};
  return get_or_build(one, yelt, cfg).front();
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
