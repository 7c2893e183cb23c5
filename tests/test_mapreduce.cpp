// The distributed-file-space substrate: DFS block store and the
// aggregate-analysis job's bit-exact equivalence with the in-memory engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/aggregate_engine.hpp"
#include "mapreduce/aggregate_job.hpp"
#include "mapreduce/dfs.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::mapreduce {
namespace {

DfsConfig test_dfs_config(const char* name) {
  DfsConfig config;
  config.root_dir = std::string("/tmp/riskan-dfs-test-") + name;
  config.block_size = 256;
  return config;
}

std::vector<std::byte> make_bytes(std::size_t n, int fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(Dfs, SplitsFilesIntoBlocks) {
  Dfs dfs(test_dfs_config("split"));
  const auto data = make_bytes(1000, 7);
  dfs.write("file", data);
  EXPECT_TRUE(dfs.exists("file"));
  EXPECT_EQ(dfs.block_count("file"), 4u);  // 256*3 + 232
  EXPECT_EQ(dfs.read_block("file", 0).size(), 256u);
  EXPECT_EQ(dfs.read_block("file", 3).size(), 232u);
  const auto back = dfs.read_all("file");
  EXPECT_EQ(back, data);
  EXPECT_EQ(dfs.logical_bytes(), 1000u);
}

TEST(Dfs, EmptyFileHasOneBlock) {
  Dfs dfs(test_dfs_config("empty"));
  dfs.write("empty", {});
  EXPECT_EQ(dfs.block_count("empty"), 1u);
  EXPECT_EQ(dfs.read_all("empty").size(), 0u);
}

TEST(Dfs, ReplicationMultipliesPhysicalBytes) {
  auto config = test_dfs_config("repl");
  config.replication = 3;
  Dfs dfs(config);
  dfs.write("file", make_bytes(100, 1));
  EXPECT_EQ(dfs.logical_bytes(), 100u);
  EXPECT_EQ(dfs.physical_bytes(), 300u);
}

TEST(Dfs, OverwriteAndRemove) {
  Dfs dfs(test_dfs_config("rm"));
  dfs.write("f", make_bytes(100, 1));
  dfs.write("f", make_bytes(50, 2));  // overwrite
  EXPECT_EQ(dfs.logical_bytes(), 50u);
  EXPECT_EQ(static_cast<int>(dfs.read_all("f")[0]), 2);
  dfs.remove("f");
  EXPECT_FALSE(dfs.exists("f"));
  EXPECT_EQ(dfs.logical_bytes(), 0u);
  EXPECT_THROW((void)dfs.block_count("f"), ContractViolation);
  dfs.remove("never-existed");  // idempotent
}

TEST(Dfs, ChunkedWritePreservesChunkBoundaries) {
  Dfs dfs(test_dfs_config("chunked"));
  dfs.write_chunked("f", {make_bytes(10, 1), make_bytes(2000, 2), make_bytes(1, 3)});
  EXPECT_EQ(dfs.block_count("f"), 3u);
  EXPECT_EQ(dfs.read_block("f", 0).size(), 10u);
  EXPECT_EQ(dfs.read_block("f", 1).size(), 2000u);  // a chunk may exceed block_size
  EXPECT_EQ(dfs.read_block("f", 2).size(), 1u);
}

TEST(Dfs, DestructorKeepsPreexistingFiles) {
  const std::filesystem::path root = "/tmp/riskan-dfs-test-preexisting";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const auto sentinel = root / "sentinel";
  write_file(sentinel.string(), make_bytes(3, 9));
  {
    DfsConfig config = test_dfs_config("unused");
    config.root_dir = root.string();
    Dfs dfs(config);
    dfs.write("file", make_bytes(1000, 1));
    EXPECT_TRUE(std::filesystem::exists(root / "file.blk0.r0"));
  }
  // Only the instance's own blocks go; the root it did not create and the
  // file it did not write stay.
  EXPECT_TRUE(std::filesystem::exists(sentinel));
  EXPECT_FALSE(std::filesystem::exists(root / "file.blk0.r0"));
  std::filesystem::remove_all(root);
}

TEST(Dfs, ConfigContracts) {
  DfsConfig bad = test_dfs_config("bad");
  bad.block_size = 0;
  EXPECT_THROW(Dfs{bad}, ContractViolation);
  bad = test_dfs_config("bad2");
  bad.replication = 0;
  EXPECT_THROW(Dfs{bad}, ContractViolation);
}

// ---------------------------------------------------------------------------
// Aggregate-analysis job
// ---------------------------------------------------------------------------

class AggregateJobFixture : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    finance::PortfolioGenConfig pg;
    pg.contracts = 5;
    pg.catalog_events = 200;
    pg.elt_rows = 60;
    portfolio_ = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = 900;
    yelt_ = data::generate_yelt(200, yg);
  }

  finance::Portfolio portfolio_;
  data::YearEventLossTable yelt_;
};

TEST_P(AggregateJobFixture, MatchesInMemoryEngineBitExactly) {
  const bool secondary = GetParam();

  core::EngineConfig engine;
  engine.backend = core::Backend::Sequential;
  engine.secondary_uncertainty = secondary;
  engine.compute_oep = false;
  engine.keep_contract_ylts = false;
  const auto reference = core::run_aggregate_analysis(portfolio_, yelt_, engine);

  Dfs dfs(test_dfs_config(secondary ? "job-sec" : "job-mean"));
  AggregateJobConfig job;
  job.trials_per_block = 128;  // uneven final block
  job.secondary_uncertainty = secondary;
  const auto result = run_aggregate_job(dfs, portfolio_, yelt_, job);

  ASSERT_EQ(result.portfolio_ylt.trials(), yelt_.trials());
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(result.portfolio_ylt[t], reference.portfolio_ylt[t]) << "trial " << t;
  }
  EXPECT_EQ(result.blocks, (yelt_.trials() + 127) / 128);
  EXPECT_GT(result.dfs_bytes, 0u);
  // The default runtime is the coordinator's in-process path: every block
  // ran here, no worker was forked.
  EXPECT_EQ(result.dist_stats.blocks_run_in_process, result.blocks);
  EXPECT_EQ(result.dist_stats.workers_spawned, 0u);
}

INSTANTIATE_TEST_SUITE_P(SecondaryOnOff, AggregateJobFixture, ::testing::Bool());

TEST_F(AggregateJobFixture, BlockSizeDoesNotChangeResults) {
  Dfs dfs_small(test_dfs_config("blk-small"));
  Dfs dfs_large(test_dfs_config("blk-large"));
  AggregateJobConfig small;
  small.trials_per_block = 64;
  AggregateJobConfig large;
  large.trials_per_block = 500;
  const auto a = run_aggregate_job(dfs_small, portfolio_, yelt_, small);
  const auto b = run_aggregate_job(dfs_large, portfolio_, yelt_, large);
  for (TrialId t = 0; t < yelt_.trials(); ++t) {
    ASSERT_EQ(a.portfolio_ylt[t], b.portfolio_ylt[t]);
  }
}

TEST_F(AggregateJobFixture, StageInIsIdempotent) {
  Dfs dfs(test_dfs_config("stage"));
  AggregateJobConfig job;
  job.trials_per_block = 100;
  const auto blocks = stage_yelt(dfs, yelt_, job);
  EXPECT_EQ(blocks, dfs.block_count(job.dfs_file));
  // Second run reuses the staged file (no duplicate bytes).
  const auto before = dfs.logical_bytes();
  const auto result = run_aggregate_job(dfs, portfolio_, yelt_, job);
  EXPECT_EQ(dfs.logical_bytes(), before);
  EXPECT_EQ(result.blocks, blocks);
}

TEST_F(AggregateJobFixture, RestagedWithOtherBlockSizeRejected) {
  // A file staged at 128 trials per block, then run at 100: the trial bases
  // would no longer match the blocks, so the job must refuse before any
  // block runs rather than return a wrong YLT.
  Dfs dfs(test_dfs_config("restage"));
  AggregateJobConfig staged;
  staged.trials_per_block = 128;
  (void)stage_yelt(dfs, yelt_, staged);
  AggregateJobConfig job = staged;
  job.trials_per_block = 100;
  EXPECT_THROW((void)run_aggregate_job(dfs, portfolio_, yelt_, job), ContractViolation);
}

TEST_F(AggregateJobFixture, TruncatedStagedBlockThrowsTypedError) {
  // Hostile bytes in the file space surface as a typed decode error on the
  // caller — not an abort from a pool thread.
  auto config = test_dfs_config("truncated");
  Dfs dfs(config);
  AggregateJobConfig job;
  job.trials_per_block = 100;
  const auto blocks = stage_yelt(dfs, yelt_, job);
  ASSERT_GT(blocks, 2u);
  const std::string path = config.root_dir + "/" + job.dfs_file + ".blk1.r0";
  std::filesystem::resize_file(path, 10);
  EXPECT_THROW((void)run_aggregate_job(dfs, portfolio_, yelt_, job), CorruptChunkError);
}

}  // namespace
}  // namespace riskan::mapreduce
