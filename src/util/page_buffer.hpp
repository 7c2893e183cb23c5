// Uninitialised scratch arrays whose large instances get their own memory
// mapping.
//
// The resolver stages hits in buffers sized for the worst case (one hit per
// occurrence) of which only a fraction is written. A heap allocation of
// that size is fine while it lives, but once freed its written pages can
// stay in the allocator's heap, resident, so a transient buffer would raise
// the process's peak memory. A large PageBuffer is instead an anonymous
// mapping of its own: pages become resident only when written, and
// destruction returns all of them to the OS. Small buffers come from the
// heap, whose recycled pages are already resident, since a fresh mapping
// would fault on every use.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

namespace riskan::util {

template <typename T>
class PageBuffer {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "PageBuffer holds uninitialised trivial values");

 public:
  /// Buffers of at least this many bytes are mapped rather than allocated.
  static constexpr std::size_t kMinMappedBytes = std::size_t{1} << 20;

  PageBuffer() = default;
  explicit PageBuffer(std::size_t n) : bytes_(n * sizeof(T)) {
    if (bytes_ < kMinMappedBytes) {
      heap_.reset(new T[n]);
      data_ = heap_.get();
      return;
    }
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    data_ = static_cast<T*>(p);
    mapped_ = true;
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  PageBuffer(PageBuffer&& other) noexcept { swap(other); }
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    PageBuffer(std::move(other)).swap(*this);
    return *this;
  }
  ~PageBuffer() {
    if (mapped_) {
      ::munmap(data_, bytes_);
    }
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

 private:
  void swap(PageBuffer& other) noexcept {
    std::swap(heap_, other.heap_);
    std::swap(data_, other.data_);
    std::swap(bytes_, other.bytes_);
    std::swap(mapped_, other.mapped_);
  }

  std::unique_ptr<T[]> heap_;
  T* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
};

}  // namespace riskan::util
