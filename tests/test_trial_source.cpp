// The TrialSource data plane: streamed-vs-in-memory-vs-oracle bit-identical
// equivalence across backends × streamed entry points × secondary ×
// scenario sweeps, the prefetch pipeline, chunk checksums, and the slice
// encoder.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/portfolio_batch.hpp"
#include "core/simd.hpp"
#include "core/streaming.hpp"
#include "data/chunked_file.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "naive_oracle.hpp"
#include "scenario/sweep.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan {
namespace {

using core::Backend;
using core::EngineConfig;
using core::EngineResult;

struct SmallWorkload {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
};

SmallWorkload make_workload(std::size_t contracts = 5, TrialId trials = 777) {
  SmallWorkload w;
  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = 200;
  pg.elt_rows = 50;
  pg.layers_per_contract = 2;
  w.portfolio = finance::generate_portfolio(pg);
  data::YeltGenConfig yg;
  yg.trials = trials;  // deliberately not a multiple of common chunk sizes
  w.yelt = data::generate_yelt(200, yg);
  return w;
}

void expect_equal_results(const EngineResult& a, const EngineResult& b) {
  ASSERT_EQ(a.portfolio_ylt.trials(), b.portfolio_ylt.trials());
  for (TrialId t = 0; t < a.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]) << "portfolio trial " << t;
    ASSERT_EQ(a.reinstatement_premium[t], b.reinstatement_premium[t])
        << "reinstatement trial " << t;
  }
  ASSERT_EQ(a.portfolio_occurrence_ylt.trials(), b.portfolio_occurrence_ylt.trials());
  for (TrialId t = 0; t < a.portfolio_occurrence_ylt.trials(); ++t) {
    ASSERT_EQ(a.portfolio_occurrence_ylt[t], b.portfolio_occurrence_ylt[t])
        << "oep trial " << t;
  }
  ASSERT_EQ(a.contract_ylts.size(), b.contract_ylts.size());
  for (std::size_t c = 0; c < a.contract_ylts.size(); ++c) {
    for (TrialId t = 0; t < a.contract_ylts[c].trials(); ++t) {
      ASSERT_EQ(a.contract_ylts[c][t], b.contract_ylts[c][t])
          << "contract " << c << " trial " << t;
    }
  }
  ASSERT_EQ(a.elt_lookups, b.elt_lookups);
  ASSERT_EQ(a.occurrences_processed, b.occurrences_processed);
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

TEST(InMemorySource, OneZeroCopyBlock) {
  const auto w = make_workload(1, 20);
  data::InMemorySource source(w.yelt);
  EXPECT_EQ(source.trials(), w.yelt.trials());
  EXPECT_EQ(source.block_count(), 1u);
  EXPECT_FALSE(source.ephemeral_blocks());

  data::TrialBlock block;
  ASSERT_TRUE(source.next(block));
  EXPECT_EQ(block.yelt.get(), &w.yelt);  // zero-copy: the caller's table
  EXPECT_EQ(block.trial_offset, 0u);
  EXPECT_EQ(block.encoded_bytes, 0u);
  EXPECT_FALSE(source.next(block));
  source.reset();
  ASSERT_TRUE(source.next(block));
}

TEST(EncodedBlockSource, DecodesOneEphemeralBlock) {
  const auto w = make_workload(1, 33);
  ByteWriter writer;
  data::encode(w.yelt, writer);
  data::EncodedBlockSource source(writer.buffer());
  EXPECT_EQ(source.trials(), w.yelt.trials());
  EXPECT_TRUE(source.ephemeral_blocks());

  data::TrialBlock block;
  ASSERT_TRUE(source.next(block));
  ASSERT_EQ(block.yelt->trials(), w.yelt.trials());
  ASSERT_EQ(block.yelt->entries(), w.yelt.entries());
  EXPECT_EQ(block.encoded_bytes, writer.size());
  for (std::uint64_t i = 0; i < w.yelt.entries(); ++i) {
    ASSERT_EQ(block.yelt->events()[i], w.yelt.events()[i]);
    ASSERT_EQ(block.yelt->days()[i], w.yelt.days()[i]);
  }
  EXPECT_FALSE(source.next(block));
}

// The dist-layer wire contract: a damaged or short encoded block is the
// typed CorruptChunkError at construction — garbage bytes can never
// silently decode into trials (a retried worker would otherwise corrupt
// the final YLT without a trace).
TEST(EncodedBlockSource, ShortPayloadThrowsTypedError) {
  const auto w = make_workload(1, 33);
  ByteWriter writer;
  data::encode(w.yelt, writer);
  const auto& bytes = writer.buffer();
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{9}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_THROW(data::EncodedBlockSource{
                     std::span<const std::byte>(bytes).subspan(0, len)},
                 CorruptChunkError)
        << "length " << len;
  }
}

TEST(EncodedBlockSource, BitFlippedPayloadThrowsTypedError) {
  const auto w = make_workload(1, 33);
  ByteWriter writer;
  data::encode(w.yelt, writer);
  // Flip a bit in the magic and in the trial count: both structural fields
  // must fail the decode loudly with the typed error.
  for (const std::size_t pos : {std::size_t{1}, std::size_t{13}}) {
    auto bytes = writer.buffer();
    bytes[pos] ^= std::byte{0x10};
    EXPECT_THROW(data::EncodedBlockSource{bytes}, CorruptChunkError)
        << "flip at " << pos;
  }
}

class ChunkedSourceFixture : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    w_ = make_workload();
    path_ = std::string("/tmp/riskan_trial_source_") +
            (GetParam() ? "prefetch" : "sync") + ".yeltc";
    core::save_yelt_chunked(w_.yelt, path_, 100);
  }
  void TearDown() override { remove_file(path_); }

  data::ChunkedFileSource::Options options() const {
    data::ChunkedFileSource::Options o;
    o.prefetch = GetParam();
    return o;
  }

  SmallWorkload w_;
  std::string path_;
};

TEST_P(ChunkedSourceFixture, StreamsBlocksInOrder) {
  data::ChunkedFileSource source(path_, options());
  EXPECT_EQ(source.trials(), w_.yelt.trials());
  EXPECT_EQ(source.block_count(), 8u);  // ceil(777 / 100)
  EXPECT_TRUE(source.ephemeral_blocks());

  data::TrialBlock block;
  TrialId offset = 0;
  std::size_t index = 0;
  while (source.next(block)) {
    EXPECT_EQ(block.index, index);
    EXPECT_EQ(block.trial_offset, offset);
    EXPECT_GT(block.encoded_bytes, 0u);
    // Block contents match the in-memory table's slice.
    for (TrialId t = 0; t < block.yelt->trials(); ++t) {
      const auto expect = w_.yelt.trial_events(offset + t);
      const auto got = block.yelt->trial_events(t);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expect[i]);
      }
    }
    offset += block.yelt->trials();
    ++index;
  }
  EXPECT_EQ(offset, w_.yelt.trials());
  EXPECT_EQ(index, source.block_count());
  EXPECT_EQ(source.stats().blocks_delivered, index);
  EXPECT_GT(source.stats().bytes_read, 0u);

  // reset() rewinds for another full pass.
  source.reset();
  EXPECT_EQ(source.stats().blocks_delivered, 0u);
  std::size_t second_pass = 0;
  while (source.next(block)) {
    ++second_pass;
  }
  EXPECT_EQ(second_pass, source.block_count());
}

INSTANTIATE_TEST_SUITE_P(PrefetchModes, ChunkedSourceFixture, ::testing::Bool());

TEST(ChunkedFileSource, PrefetchPipelineStressManyTinyBlocks) {
  // 1-trial chunks: one block per trial, so the pipeline start/stop and
  // ordering logic is exercised hundreds of times in one pass.
  data::YeltGenConfig yg;
  yg.trials = 300;
  const auto yelt = data::generate_yelt(50, yg);
  const std::string path = "/tmp/riskan_trial_source_stress.yeltc";
  core::save_yelt_chunked(yelt, path, 1);

  data::ChunkedFileSource source(path);
  EXPECT_EQ(source.block_count(), 300u);

  finance::PortfolioGenConfig pg;
  pg.contracts = 2;
  pg.catalog_events = 50;
  pg.elt_rows = 20;
  const auto portfolio = finance::generate_portfolio(pg);

  EngineConfig config;
  config.backend = Backend::Sequential;
  const auto reference = core::run_aggregate_analysis(portfolio, yelt, config);
  const auto streamed = core::run_aggregate_analysis(portfolio, source, config);
  expect_equal_results(reference, streamed);
  remove_file(path);
}

// ---------------------------------------------------------------------------
// Integrity: checksums and legacy files
// ---------------------------------------------------------------------------

TEST(ChunkedFileChecksums, BitFlipInChunkBodyRaises) {
  const auto w = make_workload(2, 200);
  const std::string path = "/tmp/riskan_trial_source_bitflip.yeltc";
  core::save_yelt_chunked(w.yelt, path, 50);

  auto bytes = read_file(path);
  {
    data::ChunkedFileReader reader(path);
    ASSERT_GT(reader.chunk_size(0), 64u);
  }
  // Flip one bit inside chunk 0's payload (its offsets column).
  const std::size_t victim = 64;
  bytes[victim] ^= std::byte{0x10};
  write_file(path, bytes);

  data::ChunkedFileReader reader(path);
  EXPECT_TRUE(reader.has_checksums());
  EXPECT_THROW((void)reader.read_chunk(0), CorruptChunkError);

  // The streamed engine surfaces the corruption instead of producing a YLT,
  // as the typed IoError (retryable data damage, not a programmer bug).
  EXPECT_THROW((void)core::run_aggregate_streaming(w.portfolio, path), IoError);
  remove_file(path);
}

TEST(ChunkedFileChecksums, CorruptHeaderTrialCountRejectedBeforeSizing) {
  // The per-chunk header peek that sizes the run is outside the CRC, so a
  // flipped bit in the trial-count field must be caught by the size bound
  // (not by an allocation blow-up downstream).
  const auto w = make_workload(1, 120);
  const std::string path = "/tmp/riskan_trial_source_badcount.yeltc";
  core::save_yelt_chunked(w.yelt, path, 40);

  auto bytes = read_file(path);
  // Chunk 0 starts at offset 0; its encoded trial count is the u64 at
  // bytes [8, 16). Blow up a low byte (inside TrialId's width) far past
  // the chunk's byte size, and a high byte (overflowing TrialId).
  auto corrupted = bytes;
  corrupted[11] = std::byte{0x7F};
  write_file(path, corrupted);
  EXPECT_THROW(data::ChunkedFileSource{path}, CorruptChunkError);

  corrupted = bytes;
  corrupted[14] = std::byte{0x7F};
  write_file(path, corrupted);
  EXPECT_THROW(data::ChunkedFileSource{path}, CorruptChunkError);
  remove_file(path);
}

TEST(ChunkedFileChecksums, LegacyV1FilesStillReadable) {
  // Hand-write a version-1 container (sizes-only directory, "CHK1" magic):
  // old files keep reading, just without verification.
  ByteWriter chunk;
  chunk.str("legacy payload");

  ByteWriter file;
  file.bytes(chunk.buffer());
  file.u64(1);                    // directory: count
  file.u64(chunk.size());        // directory: size (no crc in v1)
  file.u32(0x43484B31);          // "CHK1"
  file.u64(chunk.size());        // dir offset
  const std::string path = "/tmp/riskan_trial_source_v1.bin";
  write_file(path, file.buffer());

  data::ChunkedFileReader reader(path);
  ASSERT_EQ(reader.chunk_count(), 1u);
  EXPECT_FALSE(reader.has_checksums());
  const auto payload = reader.read_chunk(0);
  ByteReader r(payload);
  EXPECT_EQ(r.str(), "legacy payload");
  remove_file(path);
}

// ---------------------------------------------------------------------------
// The slice encoder (save path)
// ---------------------------------------------------------------------------

TEST(EncodeYeltSlice, ByteIdenticalToRebuiltBlock) {
  const auto w = make_workload(1, 97);
  const TrialId lo = 13;
  const TrialId hi = 61;

  data::YearEventLossTable::Builder builder(hi - lo);
  for (TrialId t = lo; t < hi; ++t) {
    builder.begin_trial();
    const auto events = w.yelt.trial_events(t);
    const auto days = w.yelt.trial_days(t);
    for (std::size_t i = 0; i < events.size(); ++i) {
      builder.add(events[i], days[i]);
    }
  }
  const auto rebuilt = builder.finish();
  ByteWriter reference;
  data::encode(rebuilt, reference);

  ByteWriter sliced;
  data::encode_yelt_slice(w.yelt, lo, hi, sliced);

  ASSERT_EQ(sliced.size(), reference.size());
  for (std::size_t i = 0; i < sliced.size(); ++i) {
    ASSERT_EQ(sliced.buffer()[i], reference.buffer()[i]) << "byte " << i;
  }

  // Full-range slice == whole-table encode.
  ByteWriter whole;
  data::encode(w.yelt, whole);
  ByteWriter full_slice;
  data::encode_yelt_slice(w.yelt, 0, w.yelt.trials(), full_slice);
  ASSERT_EQ(full_slice.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    ASSERT_EQ(full_slice.buffer()[i], whole.buffer()[i]);
  }

  EXPECT_EQ(data::peek_yelt_trials(
                std::span<const std::byte>(sliced.buffer()).first(data::kYeltHeaderBytes)),
            hi - lo);
}

// ---------------------------------------------------------------------------
// Streamed vs in-memory equivalence matrix
// ---------------------------------------------------------------------------

class StreamedEquivalence
    : public ::testing::TestWithParam<std::tuple<Backend, bool, bool>> {};

// Parameters: backend; whether the streamed run enters through
// run_portfolio_batch over a ChunkedFileSource (true) or through
// run_aggregate_streaming (false); secondary sampling.
TEST_P(StreamedEquivalence, BitIdenticalAcrossBackendsBatchingSecondary) {
  const auto [backend, batch, secondary] = GetParam();
  if ((backend == Backend::Simd || backend == Backend::ThreadedSimd) &&
      !core::exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  const auto w = make_workload();
  const std::string path = "/tmp/riskan_equiv_" + std::to_string(static_cast<int>(backend)) +
                           (batch ? "_b" : "_n") + (secondary ? "_s" : "_m") + ".yeltc";
  core::save_yelt_chunked(w.yelt, path, 128);

  EngineConfig config;
  config.backend = backend;
  config.secondary_uncertainty = secondary;
  config.compute_oep = true;
  config.keep_contract_ylts = true;

  const auto reference = core::run_aggregate_analysis(w.portfolio, w.yelt, config);
  expect_equal_results(oracle::naive_oracle(w.portfolio, w.yelt, config), reference);
  if (batch) {
    data::ChunkedFileSource source(path);
    expect_equal_results(reference, core::run_portfolio_batch(w.portfolio, source, config));
  } else {
    const auto streamed = core::run_aggregate_streaming(w.portfolio, path, config);
    expect_equal_results(reference, streamed);
    EXPECT_EQ(streamed.blocks, 7u);  // ceil(777 / 128)
    EXPECT_GT(streamed.bytes_read, 0u);
    EXPECT_LT(streamed.peak_block_bytes, streamed.bytes_read);
  }
  remove_file(path);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamedEquivalence,
    ::testing::Combine(::testing::ValuesIn(core::kAllBackends), ::testing::Bool(),
                       ::testing::Bool()));

// The vectorized rows of the same matrix — exercising the out-of-core
// rebind path (plan lowered once, re-bound per block) under the Simd
// executors; skipped on builds/hosts without a wide ISA.
INSTANTIATE_TEST_SUITE_P(
    SimdMatrix, StreamedEquivalence,
    ::testing::Combine(::testing::ValuesIn(core::kSimdBackends), ::testing::Bool(),
                       ::testing::Bool()));

TEST(StreamedEquivalence, TrialBaseOffsetsCompose) {
  // A streamed run under a global trial_base matches the in-memory run
  // under the same base (MapReduce-style composition).
  const auto w = make_workload(3, 200);
  const std::string path = "/tmp/riskan_equiv_base.yeltc";
  core::save_yelt_chunked(w.yelt, path, 64);

  EngineConfig config;
  config.backend = Backend::Sequential;
  config.trial_base = 5'000;
  const auto reference = oracle::naive_oracle(w.portfolio, w.yelt, config);
  const auto streamed = core::run_aggregate_streaming(w.portfolio, path, config);
  expect_equal_results(reference, streamed);
  remove_file(path);
}

// ---------------------------------------------------------------------------
// Streamed scenario sweeps
// ---------------------------------------------------------------------------

class StreamedSweep : public ::testing::TestWithParam<Backend> {};

TEST_P(StreamedSweep, BitIdenticalToInMemorySweep) {
  const Backend backend = GetParam();
  if ((backend == Backend::Simd || backend == Backend::ThreadedSimd) &&
      !core::exec::simd_available()) {
    GTEST_SKIP() << "no wide ISA dispatched on this build/host";
  }
  const auto w = make_workload(4, 400);
  const std::string path =
      "/tmp/riskan_sweep_" + std::to_string(static_cast<int>(backend)) + ".yeltc";
  core::save_yelt_chunked(w.yelt, path, 150);

  std::vector<scenario::ScenarioSpec> specs(3);
  specs[0].name = "surge";
  specs[0].loss_scale = 1.25;
  specs[1].name = "exclusions";
  specs[1].excluded_events = {1, 3, 5, 7, 11, 42};
  specs[2].name = "drop";
  specs[2].dropped_contracts = {w.portfolio.contract(0).id()};

  EngineConfig config;
  config.backend = backend;
  config.compute_oep = true;
  config.keep_contract_ylts = true;

  const auto reference = scenario::run_scenario_sweep(w.portfolio, w.yelt, specs, config);
  data::ChunkedFileSource source(path);
  const auto streamed = scenario::run_scenario_sweep(w.portfolio, source, specs, config);

  expect_equal_results(reference.base, streamed.base);
  ASSERT_EQ(reference.scenarios.size(), streamed.scenarios.size());
  for (std::size_t s = 0; s < reference.scenarios.size(); ++s) {
    expect_equal_results(reference.scenarios[s], streamed.scenarios[s]);
  }
  EXPECT_EQ(reference.plan.slots, streamed.plan.slots);
  EXPECT_EQ(reference.plan.distinct_masks, streamed.plan.distinct_masks);
  remove_file(path);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamedSweep,
                         ::testing::ValuesIn(core::kAllBackends));
INSTANTIATE_TEST_SUITE_P(SimdBackends, StreamedSweep,
                         ::testing::ValuesIn(core::kSimdBackends));

TEST(StreamedBatch, MultiBlockSourceThroughRunPortfolioBatch) {
  const auto w = make_workload(3, 250);
  const std::string path = "/tmp/riskan_batch_source.yeltc";
  core::save_yelt_chunked(w.yelt, path, 100);

  EngineConfig config;
  config.backend = Backend::Threaded;
  config.trial_grain = 32;
  const auto reference = core::run_portfolio_batch(w.portfolio, w.yelt, config);
  data::ChunkedFileSource source(path);
  const auto streamed = core::run_portfolio_batch(w.portfolio, source, config);
  expect_equal_results(reference, streamed);
  remove_file(path);
}

}  // namespace
}  // namespace riskan
