// Simulated distributed file space — approach (ii) of the paper's
// conclusions: "support enormous distributed file systems ... rich
// simulation environments that support ad-hoc analytical investigation of
// truly massive datasets."
//
// A directory-backed block store with an HDFS-shaped interface: files are
// split into fixed-size blocks; each block is an independent object a
// mapper can read in isolation; a namenode-style catalogue maps file names
// to block lists. Replication is simulated by writing block copies, so the
// storage-amplification arithmetic of a real DFS shows up in the byte
// accounting.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace riskan::mapreduce {

struct DfsConfig {
  std::string root_dir = "/tmp/riskan-dfs";
  std::size_t block_size = 4 * 1024 * 1024;
  int replication = 1;
};

class Dfs {
 public:
  explicit Dfs(DfsConfig config = {});
  /// Removes the block files this instance wrote, and root_dir itself when
  /// the constructor created it and it is left empty. Anything else under a
  /// pre-existing or shared root is kept.
  ~Dfs();

  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Writes a file, splitting it into blocks. Overwrites existing.
  void write(const std::string& name, std::span<const std::byte> data);

  /// Writes a file whose blocks are the caller's logical chunks (one chunk
  /// = one block, regardless of size). This is how the aggregate job keeps
  /// whole trials inside one block.
  void write_chunked(const std::string& name,
                     const std::vector<std::vector<std::byte>>& chunks);

  bool exists(const std::string& name) const;
  std::size_t block_count(const std::string& name) const;
  std::vector<std::byte> read_block(const std::string& name, std::size_t block) const;
  std::vector<std::byte> read_all(const std::string& name) const;

  void remove(const std::string& name);

  /// Logical bytes stored (before replication) and physical (after).
  std::uint64_t logical_bytes() const noexcept { return logical_bytes_; }
  std::uint64_t physical_bytes() const noexcept {
    return logical_bytes_ * static_cast<std::uint64_t>(config_.replication);
  }

  const DfsConfig& config() const noexcept { return config_; }

 private:
  std::string block_path(const std::string& name, std::size_t block, int replica) const;

  DfsConfig config_;
  std::map<std::string, std::vector<std::uint64_t>> catalogue_;  // name -> block sizes
  std::uint64_t logical_bytes_ = 0;
  bool created_root_ = false;  ///< the constructor made root_dir
};

}  // namespace riskan::mapreduce
