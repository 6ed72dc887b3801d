#ifndef WEBRE_REPOSITORY_PREDICATE_H_
#define WEBRE_REPOSITORY_PREDICATE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/arena.h"
#include "xml/flat_doc.h"

namespace webre {

/// Scratch state for the vectorized predicate engine: one instance per
/// query, reused across every document that query
/// touches, so the hot path performs no per-document heap allocation.
/// The arena backs the per-document element bitsets; SweepValBitset
/// Reset()s it on entry, which keeps the largest block for reuse —
/// after the first document a sweep allocates nothing.
struct PredicateScratch {
  Arena arena{4096};
  /// Predicate work performed, in bytes (exported as the
  /// query.predicate_bytes_scanned counter): the full byte length of
  /// every value slice a predicate inspected, or the whole pool for a
  /// sweep. Full lengths are charged even when a scan exits early, so
  /// the figure is a pure function of (corpus, query) — invariant
  /// across shard counts, thread counts and SIMD levels, which the
  /// determinism tests rely on.
  uint64_t bytes_scanned = 0;
  /// Full-pool sweeps performed.
  uint64_t sweeps = 0;
};

/// The sweep-vs-slice cost decision for one document. Scanning
/// candidate slices individually touches `candidate_bytes` (slices
/// shorter than the needle are pre-rejected by length and excluded —
/// the cheap needle-selectivity estimate: a longer needle disqualifies
/// more slices up front) but pays per-call kernel setup on each of the
/// `candidate_count` slices; one pool sweep touches all `pool_bytes`
/// once at full vector width with no per-slice setup. Sweep when the
/// candidates already cover at least half the pool — then the sweep
/// reads at most 2x the bytes and wins them back on setup and on
/// never restarting at slice boundaries — but never for tiny candidate
/// sets, where per-slice setup is negligible in absolute terms.
bool ShouldSweepPool(size_t candidate_count, size_t candidate_bytes,
                     size_t pool_bytes);

/// One dense SIMD pass over `doc`'s raw text pool: returns an element
/// bitset (allocated from scratch.arena — valid until the next
/// SweepValBitset on the same scratch) with bit e set iff element e's
/// val contains `lowered` case-insensitively (`lowered` is already
/// ASCII-lowercase; empty matches every element). Equivalent to
/// FindLowered(doc.val(e), lowered) != npos for every e, but the
/// scanner crosses slice boundaries in one run instead of
/// restarting per element; hits that straddle two adjacent slices are
/// detected via the offset array and rejected. Charges the pool size to
/// scratch.bytes_scanned and bumps scratch.sweeps.
const uint64_t* SweepValBitset(const FlatDoc& doc, std::string_view lowered,
                               PredicateScratch& scratch);

inline bool BitsetTest(const uint64_t* bits, uint32_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1;
}

}  // namespace webre

#endif  // WEBRE_REPOSITORY_PREDICATE_H_
