// Kernel modes for the equivalence matrices and the E16/E17 baselines.
//
// The Sequential and Threaded backends run the dispatched vector kernel
// when the build and host provide one and the scalar kernel under
// RISKAN_SIMD=off. A matrix that must cover both kernels runs each backend
// row once per mode; on a scalar-only build both modes run the scalar
// kernel, so the rows never skip. The SIMD benches time their scalar
// baseline under a ScalarOff KernelScope.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregate_engine.hpp"

namespace riskan::test_support {

/// Sets (or, with nullptr, unsets) an environment variable for a scope and
/// restores the previous value on exit. Create and destroy it outside any
/// engine run: the engine reads the environment while it plans.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

enum class KernelMode {
  Dispatched,  ///< whatever simd_dispatch() picks in the ambient environment
  ScalarOff,   ///< RISKAN_SIMD=off: the scalar kernel
};

inline constexpr KernelMode kKernelModes[] = {KernelMode::Dispatched, KernelMode::ScalarOff};

inline const char* to_string(KernelMode mode) noexcept {
  return mode == KernelMode::Dispatched ? "dispatched" : "simd-off";
}

/// Holds RISKAN_SIMD=off for its scope in ScalarOff mode; leaves the
/// environment alone in Dispatched mode.
class KernelScope {
 public:
  explicit KernelScope(KernelMode mode) {
    if (mode == KernelMode::ScalarOff) {
      env_.emplace("RISKAN_SIMD", "off");
    }
  }

 private:
  std::optional<ScopedEnv> env_;
};

/// One row of a backend × kernel equivalence matrix.
struct EngineRow {
  core::Backend backend;
  KernelMode mode;
};

/// Every backend under the ambient kernel, then again under
/// RISKAN_SIMD=off.
inline std::vector<EngineRow> engine_rows() {
  std::vector<EngineRow> rows;
  for (const KernelMode mode : {KernelMode::Dispatched, KernelMode::ScalarOff}) {
    for (const core::Backend backend : core::kAllBackends) {
      rows.push_back({backend, mode});
    }
  }
  return rows;
}

inline std::string to_string(const EngineRow& row) {
  return std::string(core::to_string(row.backend)) + "/" + to_string(row.mode);
}

}  // namespace riskan::test_support
