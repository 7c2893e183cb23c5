// Runtime SIMD dispatch for the vectorized trial kernel.
//
// The wide kernels (src/core/batch_simd*.cpp) are compiled by default
// under the CMake option RISKAN_ENABLE_SIMD (ON), which defines
// RISKAN_SIMD_AVX2 (x86-64) or RISKAN_SIMD_NEON (aarch64) for the library;
// -DRISKAN_ENABLE_SIMD=OFF builds the portable scalar-only library. At run
// time simd_dispatch() picks the widest compiled ISA the host actually
// supports — AVX2 via cpuid, NEON unconditionally on aarch64 — and hands
// back the kernel pointer the Sequential and Threaded backends run; with
// no usable ISA they run the scalar kernel, bit for bit the same.
//
// Environment override (documented with RISKAN_OBS / RISKAN_TRACE in
// docs/architecture.md):
//   RISKAN_SIMD=off|0   — disable dispatch: the scalar kernel runs.
//   RISKAN_SIMD=avx2    — only AVX2 may dispatch (unavailable → scalar).
//   RISKAN_SIMD=neon    — only NEON may dispatch (unavailable → scalar).
// The environment is re-read on every call so a process can flip the
// override between runs (tests do).
#pragma once

#include "core/batch_simd.hpp"

namespace riskan::core::exec {

enum class SimdIsa {
  None,
  Avx2,
  Neon,
};

/// The resolved dispatch decision: which ISA (if any) the vector kernels
/// will run on, its Money lane width, and the kernel entry point.
struct SimdDispatch {
  SimdIsa isa = SimdIsa::None;
  unsigned width = 0;  ///< Money lanes per vector; 0 = SIMD unavailable
  const char* name = "none";
  batch::SimdKernelFn kernel = nullptr;
  /// Whether any wide kernel was compiled into this build at all
  /// (RISKAN_ENABLE_SIMD); false means only the portable scalar kernel
  /// exists.
  bool compiled = false;
  /// Why width == 0 (diagnostics and bench skip notices).
  const char* reason = "";
};

/// Resolves the dispatch from the compiled kernels, the host CPU and the
/// RISKAN_SIMD override. Cheap (a getenv and, on x86, a cached cpuid);
/// called once per plan execution.
SimdDispatch simd_dispatch();

/// True when the Sequential and Threaded backends run the vector kernel.
inline bool simd_available() { return simd_dispatch().width > 0; }

}  // namespace riskan::core::exec
