#ifndef WEBRE_UTIL_SIMD_SCAN_H_
#define WEBRE_UTIL_SIMD_SCAN_H_

#include <cstddef>
#include <string_view>

#include "util/strings.h"

namespace webre {

/// Vectorized case-insensitive substring search — the one matcher behind
/// every `[val~"…"]` predicate: the value-column scans, the per-element
/// slice scans over a FlatDoc's raw text pool and the repository's
/// full-pool sweeps (repository/predicate.h).
///
/// The implementation is picked once per process, mirroring the CRC32C
/// dispatch (storage/crc32c.cc): cpuid decides between scalar, SSE2 and
/// AVX2 kernels, and the WEBRE_SIMD environment variable
/// ("scalar" | "sse2" | "avx2") caps the choice for testing — a request
/// the hardware cannot honor falls back to the best supported level, so
/// WEBRE_SIMD=avx2 on an SSE2-only box runs SSE2 instead of crashing.
/// All levels return byte-identical results; the differential tests and
/// bench_query assert exactly that.
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Canonical lowercase name ("scalar", "sse2", "avx2").
const char* SimdLevelName(SimdLevel level);

/// Parses a WEBRE_SIMD value; returns false (leaving `level` untouched)
/// for anything but the three canonical names.
bool ParseSimdLevel(std::string_view text, SimdLevel* level);

/// Maps cpuid feature bits to the level the dispatcher would pick — a
/// pure function so the fallback policy is unit-testable without faking
/// cpuid: no SSE2 → scalar, SSE2 without AVX2 → SSE2, AVX2 → AVX2.
SimdLevel SimdLevelFromFeatures(bool has_sse2, bool has_avx2);

/// The best level this machine supports (cpuid, cached).
SimdLevel DetectedSimdLevel();

/// The level currently dispatched to (after the WEBRE_SIMD cap and any
/// SetSimdLevelForTesting override).
SimdLevel ActiveSimdLevel();

/// TEST-ONLY: re-points the dispatch at `level` (clamped to what the
/// hardware supports) and returns the level actually installed. Not for
/// concurrent use with in-flight scans outside tests.
SimdLevel SetSimdLevelForTesting(SimdLevel level);

namespace simd_internal {

/// Out-of-line entry into the dispatched vector kernels. Contract:
/// 1 <= m and from + m <= n (FindLowered screens the degenerate cases).
size_t FindLoweredDispatch(const char* h, size_t n, const char* needle,
                           size_t m, size_t from);

/// The scalar kernel, inline: first-byte skip loop with on-the-fly
/// ASCII lowering. Same contract as FindLoweredDispatch.
inline size_t FindScalarLowered(const char* h, size_t n, const char* needle,
                                size_t m, size_t from) {
  const char first = needle[0];
  const size_t last = n - m;
  for (size_t i = from; i <= last; ++i) {
    if (AsciiToLower(h[i]) != first) continue;
    size_t j = 1;
    while (j < m && AsciiToLower(h[i + j]) == needle[j]) ++j;
    if (j == m) return i;
  }
  return std::string_view::npos;
}

}  // namespace simd_internal

/// Byte offset of the first occurrence of `lowered` in `haystack` at or
/// after `from`, comparing haystack bytes ASCII-lowered on the fly, so
/// raw stored values need no lowered copy; `lowered` must already be
/// ASCII-lowercase. Returns
/// std::string_view::npos when absent. An empty needle matches at `from`
/// whenever `from` <= haystack.size().
///
/// Inline so the hot per-slice case — a window too small for even one
/// 16-lane round (the SSE2 kernel needs from + m - 1 + 16 <= n) — runs
/// the scalar loop in place: typical element values are a few bytes,
/// and the dispatch + broadcast setup the vector kernels pay is worth
/// ~3x on predicate-dense workloads. The vector kernels serve pool
/// sweeps and long values through FindLoweredDispatch.
inline size_t FindLowered(std::string_view haystack, std::string_view lowered,
                          size_t from = 0) {
  const size_t n = haystack.size();
  const size_t m = lowered.size();
  if (m == 0) return from <= n ? from : std::string_view::npos;
  if (from > n || m > n - from) return std::string_view::npos;
  if (n - from < m + 15) {
    return simd_internal::FindScalarLowered(haystack.data(), n,
                                            lowered.data(), m, from);
  }
  return simd_internal::FindLoweredDispatch(haystack.data(), n,
                                            lowered.data(), m, from);
}

}  // namespace webre

#endif  // WEBRE_UTIL_SIMD_SCAN_H_
