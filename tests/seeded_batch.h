// The two corpus seeds the benchmark tunes on (1) and holds out
// (20020226), converted by the full pipeline: the shared input of the
// corpus-wide differential tests.

#ifndef WEBRE_TESTS_SEEDED_BATCH_H_
#define WEBRE_TESTS_SEEDED_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus/resume_generator.h"
#include "restructure/recognizer.h"

namespace webre {

inline constexpr uint64_t kCorpusSeeds[] = {1, 20020226};
inline constexpr size_t kSeededPages = 4000;

/// Converts pages [0, kSeededPages) of corpus `seed` on every hardware
/// thread with the resume concepts and constraints, optionally mapping
/// each document to the discovered DTD.
inline PipelineResult RunSeededBatch(uint64_t seed, bool map_documents) {
  static const ConceptSet concepts = ResumeConcepts();
  static const ConstraintSet constraints = ResumeConstraints();
  static const SynonymRecognizer recognizer(&concepts);
  CorpusOptions corpus;
  corpus.seed = seed;
  std::vector<std::string> pages;
  pages.reserve(kSeededPages);
  for (size_t i = 0; i < kSeededPages; ++i) {
    pages.push_back(GenerateResume(i, corpus).html);
  }
  PipelineOptions options;
  options.map_documents = map_documents;
  options.parallel.num_threads = 0;
  return Pipeline(&concepts, &recognizer, &constraints, options).Run(pages);
}

}  // namespace webre

#endif  // WEBRE_TESTS_SEEDED_BATCH_H_
