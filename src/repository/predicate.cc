#include "repository/predicate.h"

#include <algorithm>

#include "util/simd_scan.h"

namespace webre {

bool ShouldSweepPool(size_t candidate_count, size_t candidate_bytes,
                     size_t pool_bytes) {
  // Below this many slices the per-slice path is cheap in absolute
  // terms no matter the ratio; the constant only needs to be small
  // enough that dense candidate sets (the case sweeps exist for) are
  // far above it.
  constexpr size_t kMinSweepCandidates = 4;
  if (candidate_count < kMinSweepCandidates) return false;
  return candidate_bytes * 2 >= pool_bytes;
}

const uint64_t* SweepValBitset(const FlatDoc& doc, std::string_view lowered,
                               PredicateScratch& scratch) {
  scratch.arena.Reset();
  const uint32_t count = doc.element_count();
  const size_t words = size_t{count} / 64 + 1;
  uint64_t* bits = static_cast<uint64_t*>(
      scratch.arena.Allocate(words * sizeof(uint64_t), alignof(uint64_t)));
  const std::string_view pool = doc.text_pool();
  scratch.bytes_scanned += pool.size();
  ++scratch.sweeps;
  if (lowered.empty()) {
    // Empty needle: every element matches (slack bits past `count` are
    // set too; BitsetTest is only ever asked about valid elements).
    std::fill_n(bits, words, ~uint64_t{0});
    return bits;
  }
  std::fill_n(bits, words, uint64_t{0});

  // One scanner run over the whole pool. A hit at pool offset h lands
  // in the unique slice e with off[e] <= h < off[e+1] (slices are
  // adjacent and ascending, so e only ever advances); it is a real
  // match for e iff it also ENDS inside e's slice — a hit straddling
  // the boundary into slice e+1 exists in the concatenated pool but in
  // no element's val, so it is skipped and the scan resumes one byte
  // later. After e's first real match the scan jumps to e's slice end:
  // the bitset needs no second match, and the jump bounds the loop at
  // O(elements + rejected straddles).
  const uint32_t* off = doc.text_offsets();
  const size_t m = lowered.size();
  size_t pos = 0;
  uint32_t e = 0;
  while (true) {
    const size_t h = FindLowered(pool, lowered, pos);
    if (h == std::string_view::npos) break;
    while (off[e + 1] <= h) ++e;  // h < pool size == off[count]: e < count
    if (h + m <= off[e + 1]) {
      bits[e >> 6] |= uint64_t{1} << (e & 63);
      pos = off[e + 1];
    } else {
      pos = h + 1;
    }
  }
  return bits;
}

}  // namespace webre
