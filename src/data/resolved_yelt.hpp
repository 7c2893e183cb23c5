// Event→row resolution of aggregate analysis: the pre-join that hoists every
// ELT lookup out of the stage-2 trial kernel.
//
// The kernel walks every YELT occurrence once per (contract, layer, trial)
// and needs the matching ELT row. Resolving that mapping inside the kernel
// — a binary search per occurrence — re-derives the identical answer for
// every layer of a contract and on every engine run. The paper's own
// "scan, don't seek" argument applies: hoist the dependent random accesses
// out of the hot loop into a one-time streamed pre-join.
//
// CompactResolvedYelt is the form the engine gathers from: only the hits,
// CSR-indexed by trial, built straight from the ELTs and the YELT event
// column and shared across a contract's layers and runs (ResolverCache).
// One build serves every table a request is missing: a single streamed
// pass over the event column looks each event up once in event → (table,
// row) postings and stages every table's hits, which are then placed into
// the compact columns. ResolvedYelt — the full occurrence-aligned row
// column — is kept as the standalone resolution probe (benchmarks time it)
// and as the reference the compact build is tested against.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/elt.hpp"
#include "data/yelt.hpp"
#include "parallel/parallel_for.hpp"
#include "util/aligned.hpp"
#include "util/page_buffer.hpp"

namespace riskan::data {

class ResolvedYelt {
 public:
  /// Sentinel row for "event not in the ELT" (no loss to this contract).
  static constexpr std::uint32_t kNoLoss = ~std::uint32_t{0};

  ResolvedYelt() = default;

  /// One-time pre-join: binary-searches each YELT occurrence in `elt`
  /// exactly once, in parallel over contiguous occurrence slabs.
  /// Deterministic (each slot is written independently of scheduling).
  static ResolvedYelt build(const EventLossTable& elt, const YearEventLossTable& yelt,
                            ParallelConfig cfg = {});

  /// Row column aligned with yelt.events(): rows()[i] indexes the ELT, or
  /// kNoLoss.
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }

  /// Occurrences that resolved to an ELT row (telemetry; equals the
  /// engine's per-layer "lookups found" count).
  std::uint64_t hits() const noexcept { return hits_; }

  std::size_t byte_size() const noexcept { return rows_.size() * sizeof(std::uint32_t); }

 private:
  util::AlignedVector<std::uint32_t> rows_;  // gather column — 64-byte aligned
  std::uint64_t hits_ = 0;
};

/// Event → (table, row) postings of a list of ELTs — the lookup of the
/// resolver's fused build. Every table with a dense row_lookup() is posted
/// (its lookup inverted: event ids[r] posts (table, r)); tables without one
/// (sparse id ranges) are listed and searched with find(). Postings depend
/// only on the tables, so a streamed run builds them once (ResolveScratch)
/// and every block reuses them.
class EventPostings {
 public:
  struct Posting {
    std::uint32_t table;
    std::uint32_t row;
  };

  explicit EventPostings(std::span<const EventLossTable* const> elts);

  /// Whether these postings were built from exactly `elts`, in order.
  bool built_from(std::span<const EventLossTable* const> elts) const noexcept;

  /// Postings of event e: entries()[offsets()[e] .. offsets()[e + 1]), for
  /// e < offsets().size() - 1.
  std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }
  std::span<const Posting> entries() const noexcept { return entries_; }
  /// Indices of the tables that are searched rather than posted.
  std::span<const std::uint32_t> sparse() const noexcept { return sparse_; }
  const EventLossTable& table(std::size_t j) const { return *tables_[j]; }

 private:
  std::vector<const EventLossTable*> tables_;
  std::vector<std::uint32_t> offsets_;
  std::vector<Posting> entries_;
  std::vector<std::uint32_t> sparse_;
};

/// What a run keeps across the fused builds of its blocks, so a streamed
/// pass does not redo per-block setup: the postings of its tables (they
/// depend only on the tables) and the staging buffers (reused, since a
/// fresh buffer faults in every page the block's hits touch). The buffers
/// live until the scratch is dropped.
class ResolveScratch {
 public:
  explicit ResolveScratch(std::span<const EventLossTable* const> elts) : postings_(elts) {}

  const EventPostings& postings() const noexcept { return postings_; }
  /// Staging buffer `j`, at least `words` long (grown, never shrunk).
  std::uint32_t* staging(std::size_t j, std::size_t words);

 private:
  struct Buffer {
    util::PageBuffer<std::uint32_t> data;
    std::size_t words = 0;
  };
  EventPostings postings_;
  std::vector<Buffer> staging_;
};

/// Hit-compacted resolution — the SoA gather input of the stage-2 kernel.
///
/// A ResolvedYelt carries one slot per YELT occurrence, most of which are
/// kNoLoss for a contract whose ELT covers a fraction of the catalogue; a
/// kernel walking it would read 4 bytes and branch for every miss. The
/// compact form keeps only the hits, CSR-indexed by trial, as two parallel
/// uint32 columns:
///   seqs()[k] — the occurrence's sequence number within its trial
///               (i - yelt.offsets()[t]; also the secondary-uncertainty
///               stream key, so sampling stays bit-identical);
///   rows()[k] — the matching ELT row.
/// trial_offsets()[t]..trial_offsets()[t+1] delimit trial t's hits. A layer
/// pass then touches 8 bytes per *hit* instead of 4 bytes per *occurrence*,
/// and spends no branches on misses — at a typical 10% catalogue coverage
/// that is ~5x less streamed data per (layer, trial) walk.
class CompactResolvedYelt {
 public:
  CompactResolvedYelt() = default;

  /// Resolves `yelt`'s occurrences against every table of `elts` at once,
  /// straight into hit columns; entry j of the result is table j's
  /// resolution and equals compacting ResolvedYelt::build(*elts[j], yelt)
  /// hit for hit.
  ///
  /// One streamed pass over the event column serves every table through
  /// EventPostings, so each occurrence costs one postings probe however
  /// many tables there are. A single dense table skips the postings: every
  /// occurrence is stored and the write cursor advances only on a hit, so
  /// that loop has no data-dependent branch. A caller's `scratch` lends its
  /// staging buffers, and its postings when they were built from exactly
  /// `elts`.
  ///
  /// The pass runs on the weighted parallel_for over the YELT's offsets(),
  /// so a small block resolves inline or in a few tasks. Each task stages
  /// its hits in uninitialised per-table buffers made on the calling
  /// thread (2 x entries words of address space per table, of which only
  /// the staged hits' pages are touched): the scratch's, or the build's own
  /// released on return. A second step places each task's hits at its CSR
  /// base. Every output slot is written independently of scheduling, so
  /// the build is deterministic under any cfg.
  static std::vector<CompactResolvedYelt> build(std::span<const EventLossTable* const> elts,
                                                const YearEventLossTable& yelt,
                                                ParallelConfig cfg = {},
                                                ResolveScratch* scratch = nullptr);

  /// CSR index: hits of trial t live in [trial_offsets()[t], trial_offsets()[t+1]).
  std::span<const std::uint64_t> trial_offsets() const noexcept { return trial_offsets_; }
  /// In-trial occurrence sequence numbers of the hits, trial-relative.
  std::span<const std::uint32_t> seqs() const noexcept { return seqs_; }
  /// ELT rows of the hits, parallel to seqs().
  std::span<const std::uint32_t> rows() const noexcept { return rows_; }

  /// Total hits (== ResolvedYelt::build(elt, yelt).hits()).
  std::uint64_t hits() const noexcept { return seqs_.size(); }
  TrialId trials() const noexcept {
    return trial_offsets_.empty() ? 0 : static_cast<TrialId>(trial_offsets_.size() - 1);
  }

  std::size_t byte_size() const noexcept {
    return trial_offsets_.size() * sizeof(std::uint64_t) +
           (seqs_.size() + rows_.size()) * sizeof(std::uint32_t);
  }

 private:
  // SoA gather columns of the batched/vectorized kernels — 64-byte aligned.
  util::AlignedVector<std::uint64_t> trial_offsets_;
  util::AlignedVector<std::uint32_t> seqs_;
  util::AlignedVector<std::uint32_t> rows_;
};

class ResolverCache;

/// Pre-resolved view of many contracts' ELTs against one shared YELT — what
/// the engine builds up front so the trial-chunk pass is pure gathers. The
/// compact resolutions come from (and stay shared through) a ResolverCache,
/// so a warm run resolves nothing.
class MultiResolution {
 public:
  struct Entry {
    std::shared_ptr<const CompactResolvedYelt> compact;
  };

  MultiResolution() = default;

  /// Resolves every ELT in `elts` against `yelt` through `cache` (nullptr =
  /// ResolverCache::shared()), building all of the cache's misses in one
  /// fused pass (with `scratch`, when given). Order of entries follows
  /// `elts`.
  static MultiResolution build(std::span<const EventLossTable* const> elts,
                               const YearEventLossTable& yelt, ResolverCache* cache,
                               ParallelConfig cfg = {}, ResolveScratch* scratch = nullptr);

  const Entry& entry(std::size_t i) const { return entries_[i]; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

/// Process-wide cache of compact resolutions keyed by (ELT, YELT) identity.
///
/// The key couples the tables' data pointers and shapes with a strided
/// content fingerprint (first/last/sampled event ids of both tables), so a
/// freed table whose address is reused by a different table does not
/// produce a false hit. Entries are evicted FIFO past kMaxEntries entries
/// or kMaxBytes of retained columns — the byte bound is what matters
/// for long-lived processes that resolve many distinct large workloads,
/// since cached resolutions can outlive the tables they were built from.
/// Before building a request's misses, the cache also evicts until the
/// largest output those misses can have (every occurrence a hit) fits
/// under kMaxBytes, so a build in flight does not carry the process past
/// the bound.
class ResolverCache {
 public:
  /// Entries retained before FIFO eviction kicks in.
  static constexpr std::size_t kMaxEntries = 128;
  /// Retained resolution bytes before FIFO eviction kicks in (a single
  /// oversized resolution is still cached; older entries go first).
  static constexpr std::size_t kMaxBytes = std::size_t{256} << 20;

  ResolverCache() = default;
  ResolverCache(const ResolverCache&) = delete;
  ResolverCache& operator=(const ResolverCache&) = delete;

  /// Returns the cached compact resolution of each of `elts` against
  /// `yelt`, in order, building every miss in one CompactResolvedYelt::build.
  /// A table requested twice is built once (the repeat counts as a hit).
  /// `scratch` is lent to the build. Thread-safe; concurrent misses on the
  /// same key may build twice but return equivalent resolutions.
  std::vector<std::shared_ptr<const CompactResolvedYelt>> get_or_build(
      std::span<const EventLossTable* const> elts, const YearEventLossTable& yelt,
      ParallelConfig cfg = {}, ResolveScratch* scratch = nullptr);

  /// get_or_build of one table.
  std::shared_ptr<const CompactResolvedYelt> get_or_build_compact(
      const EventLossTable& elt, const YearEventLossTable& yelt, ParallelConfig cfg = {});

  std::size_t size() const;
  /// Total bytes of retained columns.
  std::size_t byte_size() const;
  void clear();

  /// Telemetry for benches and the architecture doc's cache-hit claims.
  std::uint64_t hit_count() const noexcept { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t miss_count() const noexcept { return misses_.load(std::memory_order_relaxed); }

  /// The process-wide cache used by the engines when none is supplied.
  static ResolverCache& shared();

 private:
  struct Key {
    const void* elt_ids = nullptr;
    const void* yelt_events = nullptr;
    std::size_t elt_size = 0;
    std::uint64_t yelt_entries = 0;
    TrialId yelt_trials = 0;
    std::uint64_t fingerprint = 0;

    bool operator==(const Key&) const = default;
  };

  static Key make_key(const EventLossTable& elt, const YearEventLossTable& yelt) noexcept;

  struct Entry {
    Key key;
    std::shared_ptr<const CompactResolvedYelt> compact;
  };

  /// Inserts under the lock, re-checking for a racing insert; returns the
  /// surviving entry's resolution and runs FIFO eviction.
  std::shared_ptr<const CompactResolvedYelt> insert_locked(
      const Key& key, std::shared_ptr<const CompactResolvedYelt> compact);
  /// FIFO-evicts past the entry/byte bounds; caller holds mutex_.
  void evict_locked();

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace riskan::data
