// Seeded inputs: resume pages from the repository's generator and path
// queries derived from the label paths those pages realize.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_pool.h"
#include "xml/node.h"

namespace perfbench {

struct Corpus {
  std::vector<std::string> html;
  /// Generator ground truth, parallel to `html` (empty unless asked for).
  std::vector<std::unique_ptr<webre::Node>> truth;
  uint64_t html_bytes = 0;
  /// Distinct author styles among the pages.
  size_t styles = 0;
};

/// Pages `first .. first+count-1` of the corpus with master seed `seed`
/// (webre::CorpusOptions::seed), generated on `pool`.
Corpus MakeCorpus(uint64_t seed, size_t first, size_t count, bool keep_truth,
                  webre::ThreadPool& pool);

/// Realized root-to-element label paths ("/resume/EDUCATION/DATE") and
/// the number of documents containing each.
using PathCounts = std::map<std::string, size_t>;
void CountPaths(const webre::Node& root, PathCounts& counts);

/// `count` distinct path queries, in Zipf rank order (index 0 hottest).
/// The mix covers every plan the repository has: plain and descendant
/// structural paths, final-step `val~` predicates (summary and pool
/// sweep), a full-cover `//*[val~...]`, an intermediate predicate under
/// a simple prefix (summary-seeded) and one with no prefix (scan).
/// Needles come from the generator's vocabulary. Deterministic in
/// (paths, count, seed).
std::vector<std::string> MakeQueries(const PathCounts& paths, size_t count,
                                     uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
