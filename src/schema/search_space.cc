#include "schema/search_space.h"

#include <vector>

namespace webre {
namespace {

uint64_t Pow(uint64_t base, size_t exp) {
  uint64_t result = 1;
  for (size_t i = 0; i < exp; ++i) result *= base;
  return result;
}

// `path` holds an allowed path; each extension needs only its leaf
// checked (ConstraintSet::LeafAllowed).
uint64_t CountConstrained(const std::vector<NameId>& concept_ids,
                          const ConstraintSet& constraints,
                          std::vector<NameId>& path, size_t max_level) {
  uint64_t count = 1;  // the node ending this path
  const size_t next_level = path.size();  // root is path[0] at level 0
  if (next_level > max_level) return count;
  for (NameId id : concept_ids) {
    path.push_back(id);
    if (constraints.LeafAllowed(path)) {
      count += CountConstrained(concept_ids, constraints, path, max_level);
    }
    path.pop_back();
  }
  return count;
}

}  // namespace

SearchSpaceReport AnalyzeSearchSpace(const ConceptSet& concepts,
                                     const ConstraintSet& constraints,
                                     const std::string& root_label,
                                     size_t max_level) {
  SearchSpaceReport report;
  report.concept_count = concepts.size();
  if (constraints.max_level() > 0 && constraints.max_level() < max_level) {
    max_level = constraints.max_level();
  }
  report.max_level = max_level;

  const uint64_t n = concepts.size();
  report.exhaustive_paper_formula = Pow(n, max_level + 2) - 1;
  report.exhaustive_enumerated = 1;
  for (size_t k = 1; k <= max_level; ++k) {
    report.exhaustive_enumerated += Pow(n, k);
  }

  std::vector<NameId> concept_ids;
  for (size_t i = 0; i < concepts.size(); ++i) {
    concept_ids.push_back(concepts.name_id(i));
  }
  std::vector<NameId> path = {InternName(root_label)};
  report.constrained =
      CountConstrained(concept_ids, constraints, path, max_level);
  return report;
}

}  // namespace webre
