#include "mapreduce/dfs.hpp"

#include <filesystem>

#include "util/bytes.hpp"
#include "util/require.hpp"

namespace riskan::mapreduce {

namespace fs = std::filesystem;

Dfs::Dfs(DfsConfig config) : config_(std::move(config)) {
  RISKAN_REQUIRE(config_.block_size > 0, "DFS block size must be positive");
  RISKAN_REQUIRE(config_.replication >= 1, "replication factor must be at least 1");
  created_root_ = fs::create_directories(config_.root_dir);
}

Dfs::~Dfs() {
  while (!catalogue_.empty()) {
    const std::string name = catalogue_.begin()->first;
    remove(name);
  }
  if (created_root_) {
    std::error_code ec;
    fs::remove(config_.root_dir, ec);
  }
}

std::string Dfs::block_path(const std::string& name, std::size_t block, int replica) const {
  return config_.root_dir + "/" + name + ".blk" + std::to_string(block) + ".r" +
         std::to_string(replica);
}

void Dfs::write(const std::string& name, std::span<const std::byte> data) {
  if (exists(name)) {
    remove(name);
  }
  std::vector<std::uint64_t> sizes;
  for (std::size_t off = 0; off < data.size() || sizes.empty(); off += config_.block_size) {
    const std::size_t len = std::min(config_.block_size, data.size() - off);
    const auto block = data.subspan(off, len);
    const std::size_t index = sizes.size();
    for (int r = 0; r < config_.replication; ++r) {
      write_file(block_path(name, index, r), block);
    }
    sizes.push_back(len);
    logical_bytes_ += len;
    if (len == data.size()) {
      break;
    }
  }
  catalogue_[name] = std::move(sizes);
}

void Dfs::write_chunked(const std::string& name,
                        const std::vector<std::vector<std::byte>>& chunks) {
  RISKAN_REQUIRE(!chunks.empty(), "chunked write needs chunks");
  if (exists(name)) {
    remove(name);
  }
  std::vector<std::uint64_t> sizes;
  sizes.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    for (int r = 0; r < config_.replication; ++r) {
      write_file(block_path(name, i, r), chunks[i]);
    }
    sizes.push_back(chunks[i].size());
    logical_bytes_ += chunks[i].size();
  }
  catalogue_[name] = std::move(sizes);
}

bool Dfs::exists(const std::string& name) const {
  return catalogue_.contains(name);
}

std::size_t Dfs::block_count(const std::string& name) const {
  const auto it = catalogue_.find(name);
  RISKAN_REQUIRE(it != catalogue_.end(), "no such DFS file: " + name);
  return it->second.size();
}

std::vector<std::byte> Dfs::read_block(const std::string& name, std::size_t block) const {
  const auto it = catalogue_.find(name);
  RISKAN_REQUIRE(it != catalogue_.end(), "no such DFS file: " + name);
  RISKAN_REQUIRE(block < it->second.size(), "block index out of range for " + name);
  // Read replica 0; a real DFS would pick the nearest live replica.
  return read_file(block_path(name, block, 0));
}

std::vector<std::byte> Dfs::read_all(const std::string& name) const {
  std::vector<std::byte> out;
  const auto blocks = block_count(name);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto block = read_block(name, b);
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

void Dfs::remove(const std::string& name) {
  const auto it = catalogue_.find(name);
  if (it == catalogue_.end()) {
    return;
  }
  for (std::size_t b = 0; b < it->second.size(); ++b) {
    for (int r = 0; r < config_.replication; ++r) {
      remove_file(block_path(name, b, r));
    }
    logical_bytes_ -= it->second[b];
  }
  catalogue_.erase(it);
}

}  // namespace riskan::mapreduce
