// Differential and unit tests for the vectorized predicate scanner
// (util/simd_scan.h) and the pool-sweep bitset built on top of it
// (repository/predicate.h). Every SIMD kernel the hardware supports is
// exercised against the scalar reference on randomized and adversarial
// pools — lane-boundary straddles, pool-tail matches, sub-lane pools —
// because a kernel bug here silently corrupts query results.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "repository/predicate.h"
#include "util/rng.h"
#include "util/simd_scan.h"
#include "xml/flat_doc.h"
#include "xml/node.h"

namespace webre {
namespace {

constexpr size_t kNpos = std::string_view::npos;

/// Restores the dispatched kernel on scope exit so a failing test cannot
/// leak a forced level into later tests in the same binary.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(ActiveSimdLevel()) {}
  ~SimdLevelGuard() { SetSimdLevelForTesting(saved_); }

 private:
  SimdLevel saved_;
};

/// Every level the running machine can execute, scalar first.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse2) levels.push_back(SimdLevel::kSse2);
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

char AsciiLower(char c) { return (c >= 'A' && c <= 'Z') ? c + 32 : c; }

/// Straight-line reference matcher: no skipping, no vectorization.
size_t ReferenceFind(std::string_view haystack, std::string_view lowered,
                     size_t from) {
  if (lowered.empty()) return from <= haystack.size() ? from : kNpos;
  if (lowered.size() > haystack.size()) return kNpos;
  for (size_t i = from; i + lowered.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < lowered.size() && AsciiLower(haystack[i + j]) == lowered[j]) {
      ++j;
    }
    if (j == lowered.size()) return i;
  }
  return kNpos;
}

void ExpectAllLevelsAgree(std::string_view haystack, std::string_view needle,
                          size_t from) {
  SimdLevelGuard guard;
  const size_t want = ReferenceFind(haystack, needle, from);
  for (SimdLevel level : SupportedLevels()) {
    ASSERT_EQ(SetSimdLevelForTesting(level), level);
    EXPECT_EQ(FindLowered(haystack, needle, from), want)
        << "level=" << SimdLevelName(level) << " pool_len=" << haystack.size()
        << " needle=\"" << needle << "\" from=" << from;
  }
}

TEST(SimdLevelTest, NamesRoundTripThroughParse) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    SimdLevel parsed = SimdLevel::kScalar;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel untouched = SimdLevel::kAvx2;
  EXPECT_FALSE(ParseSimdLevel("", &untouched));
  EXPECT_FALSE(ParseSimdLevel("avx512", &untouched));
  EXPECT_FALSE(ParseSimdLevel("SSE2", &untouched));  // case-sensitive
  EXPECT_FALSE(ParseSimdLevel("scalar ", &untouched));
  EXPECT_EQ(untouched, SimdLevel::kAvx2);
}

TEST(SimdLevelTest, DispatcherPicksScalarWithoutFeatureBits) {
  // The fallback policy as a pure function of cpuid bits: a machine
  // reporting no vector features must get the scalar kernel, never a
  // crash-on-dispatch.
  EXPECT_EQ(SimdLevelFromFeatures(false, false), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromFeatures(false, true), SimdLevel::kScalar);
  EXPECT_EQ(SimdLevelFromFeatures(true, false), SimdLevel::kSse2);
  EXPECT_EQ(SimdLevelFromFeatures(true, true), SimdLevel::kAvx2);
}

TEST(SimdLevelTest, SetForTestingClampsToHardware) {
  SimdLevelGuard guard;
  // Requesting more than the hardware supports installs the best
  // supported kernel; requesting scalar always succeeds.
  EXPECT_LE(SetSimdLevelForTesting(SimdLevel::kAvx2), DetectedSimdLevel());
  EXPECT_EQ(SetSimdLevelForTesting(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(FindLoweredTest, EmptyNeedleAndEdgeOffsets) {
  SimdLevelGuard guard;
  for (SimdLevel level : SupportedLevels()) {
    SetSimdLevelForTesting(level);
    EXPECT_EQ(FindLowered("abc", ""), 0u);
    EXPECT_EQ(FindLowered("abc", "", 3), 3u);  // empty matches at end
    EXPECT_EQ(FindLowered("abc", "", 4), kNpos);
    EXPECT_EQ(FindLowered("", ""), 0u);
    EXPECT_EQ(FindLowered("", "a"), kNpos);
    EXPECT_EQ(FindLowered("abc", "abcd"), kNpos);  // needle longer than pool
    EXPECT_EQ(FindLowered("abc", "c", 2), 2u);
    EXPECT_EQ(FindLowered("abc", "c", 3), kNpos);  // from past last window
  }
}

TEST(FindLoweredTest, LowersHaystackNotNeedle) {
  SimdLevelGuard guard;
  for (SimdLevel level : SupportedLevels()) {
    SetSimdLevelForTesting(level);
    EXPECT_EQ(FindLowered("JUNE 1996", "june"), 0u);
    EXPECT_EQ(FindLowered("JuNe 1996", "e 19"), 3u);
    // Non-ASCII bytes must pass through unlowered (the 0x20 trick must
    // not touch bytes >= 0x80).
    std::string pool = "x\xC3\x89y";  // 'x', U+00C9 in UTF-8, 'y'
    EXPECT_EQ(FindLowered(pool, "\xC3\x89"), 1u);
    EXPECT_EQ(FindLowered(pool, "\xE3"), kNpos);
  }
}

TEST(FindLoweredTest, LaneBoundaryStraddles) {
  // Place a needle at every offset around the 16- and 32-byte lane
  // boundaries, including positions where the match straddles the
  // boundary and where the match IS the pool tail.
  const std::string needle = "needle";
  for (size_t pool_len : {5u, 15u, 16u, 17u, 31u, 32u, 33u, 64u, 100u}) {
    for (size_t at = 0; at + needle.size() <= pool_len; ++at) {
      std::string pool(pool_len, 'x');
      std::copy(needle.begin(), needle.end(), pool.begin() + at);
      ExpectAllLevelsAgree(pool, needle, 0);
      ExpectAllLevelsAgree(pool, needle, at);      // from == match
      ExpectAllLevelsAgree(pool, needle, at + 1);  // from just past it
    }
  }
  // Pools shorter than one lane, including shorter than the needle.
  for (size_t pool_len = 0; pool_len < 16; ++pool_len) {
    ExpectAllLevelsAgree(std::string(pool_len, 'n'), needle, 0);
    ExpectAllLevelsAgree(std::string(pool_len, 'n'), "n", 0);
  }
}

TEST(FindLoweredTest, RandomizedDifferentialAcrossLevels) {
  // Small alphabet with mixed case so matches, near-misses (shared
  // first/last byte with a differing middle) and repeats are all common.
  const char kAlphabet[] = "aAbBc<> ";
  Rng rng(20260808);
  for (int round = 0; round < 400; ++round) {
    const size_t n = rng.NextBelow(200);
    std::string pool(n, ' ');
    for (char& c : pool) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
    const size_t m = 1 + rng.NextBelow(12);
    std::string needle;
    if (n >= m && rng.NextBool(0.6)) {
      // Sample the needle from the pool so matches actually occur.
      const size_t at = rng.NextBelow(n - m + 1);
      needle = pool.substr(at, m);
      for (char& c : needle) c = AsciiLower(c);
    } else {
      for (size_t i = 0; i < m; ++i) {
        char c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
        needle.push_back(AsciiLower(c));
      }
    }
    const size_t from = rng.NextBelow(n + 2);
    ExpectAllLevelsAgree(pool, needle, from);
    // Walk every occurrence, not just the first.
    size_t pos = ReferenceFind(pool, needle, 0);
    while (pos != kNpos) {
      ExpectAllLevelsAgree(pool, needle, pos);
      ExpectAllLevelsAgree(pool, needle, pos + 1);
      pos = ReferenceFind(pool, needle, pos + 1);
    }
  }
}

std::unique_ptr<Node> DocFromVals(const std::vector<std::string>& vals) {
  auto root = Node::MakeElement("r");
  for (const std::string& v : vals) {
    Node* child = root->AddElement("e");
    if (!v.empty()) child->set_val(v);
  }
  return root;
}

/// SweepValBitset must agree bit-for-bit with a per-element FindLowered
/// over each raw value — the element-wise definition it accelerates.
void ExpectSweepMatchesElementwise(const FlatDoc& flat,
                                   std::string_view needle,
                                   PredicateScratch& scratch) {
  SimdLevelGuard guard;
  for (SimdLevel level : SupportedLevels()) {
    SetSimdLevelForTesting(level);
    const uint64_t* bits = SweepValBitset(flat, needle, scratch);
    for (uint32_t e = 0; e < flat.element_count(); ++e) {
      EXPECT_EQ(BitsetTest(bits, e),
                FindLowered(flat.val(e), needle) != std::string_view::npos)
          << "level=" << SimdLevelName(level) << " element=" << e
          << " needle=\"" << needle << "\"";
    }
  }
}

TEST(SweepValBitsetTest, RejectsBoundaryStraddlingHits) {
  // The concatenated pool "abcd" contains "bc", but no single element's
  // val does — the sweep must reject the straddling hit via the offset
  // array, and still find the genuine match in the next element.
  auto flat = FlatDoc::Freeze(*DocFromVals({"ab", "cd", "xbcx"}));
  PredicateScratch scratch;
  ExpectSweepMatchesElementwise(*flat, "bc", scratch);
  ExpectSweepMatchesElementwise(*flat, "ab", scratch);
  ExpectSweepMatchesElementwise(*flat, "d", scratch);
  ExpectSweepMatchesElementwise(*flat, "abcd", scratch);
  ExpectSweepMatchesElementwise(*flat, "", scratch);
}

TEST(SweepValBitsetTest, RepeatedHitsWithinOneElement) {
  // First-match-per-element must still mark every element that matches,
  // including ones whose val repeats the needle many times.
  auto flat = FlatDoc::Freeze(
      *DocFromVals({"aaaa", "AAa", "b", "", "aba", "xxaa"}));
  PredicateScratch scratch;
  ExpectSweepMatchesElementwise(*flat, "aa", scratch);
  ExpectSweepMatchesElementwise(*flat, "a", scratch);
  ExpectSweepMatchesElementwise(*flat, "ab", scratch);
}

TEST(SweepValBitsetTest, RandomizedDifferentialAndScratchReuse) {
  Rng rng(777);
  const char kAlphabet[] = "aAbc ";
  PredicateScratch scratch;  // reused across all docs, as in queries
  for (int round = 0; round < 60; ++round) {
    std::vector<std::string> vals(1 + rng.NextBelow(20));
    for (std::string& v : vals) {
      v.resize(rng.NextBelow(24));
      for (char& c : v) c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
    }
    auto flat = FlatDoc::Freeze(*DocFromVals(vals));
    std::string needle(1 + rng.NextBelow(4), 'a');
    for (char& c : needle) {
      c = AsciiLower(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
    }
    ExpectSweepMatchesElementwise(*flat, needle, scratch);
  }
  EXPECT_EQ(scratch.sweeps, 60u * SupportedLevels().size());
  EXPECT_GT(scratch.bytes_scanned, 0u);
}

TEST(ShouldSweepPoolTest, CostModel) {
  // Tiny candidate sets never sweep, regardless of coverage.
  EXPECT_FALSE(ShouldSweepPool(0, 0, 100));
  EXPECT_FALSE(ShouldSweepPool(3, 100, 100));
  // Sweep iff candidates cover at least half the pool.
  EXPECT_TRUE(ShouldSweepPool(4, 50, 100));
  EXPECT_FALSE(ShouldSweepPool(4, 49, 100));
  EXPECT_TRUE(ShouldSweepPool(1000, 600, 1000));
}

}  // namespace
}  // namespace webre
