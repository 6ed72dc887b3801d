// Differential test of ConstraintSet's compiled NameId tables against
// the string oracle of constraints_oracle.h: every root-emanating label
// path of both corpus seeds under the resume constraints and under
// random constraint sets, and random constraint sets over random paths
// — positive and negated parent and sibling rules, depth =, < and >
// (negated too), the no-repeat rule and the level cap. The miner's
// pruning counters must equal the oracle's count of rejected paths.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "concepts/constraints.h"
#include "concepts/resume_domain.h"
#include "constraints_oracle.h"
#include "schema/frequent_paths.h"
#include "schema/path_extractor.h"
#include "seeded_batch.h"

namespace webre {
namespace {

std::vector<NameId> Ids(const LabelPath& labels) {
  std::vector<NameId> ids;
  for (const std::string& label : labels) ids.push_back(InternName(label));
  return ids;
}

// A random constraint set over `names`: a handful of rules of every
// kind, each negated with probability 1/2, plus random built-in rules.
ConstraintSet RandomConstraints(std::mt19937_64& rng,
                                const std::vector<std::string>& names) {
  ConstraintSet set;
  auto name = [&] { return names[rng() % names.size()]; };
  const size_t rules = rng() % 8;
  for (size_t r = 0; r < rules; ++r) {
    const bool negated = rng() % 2 == 0;
    switch (rng() % 3) {
      case 0:
        set.Add(ConceptConstraint::Parent(name(), name(), negated));
        break;
      case 1:
        set.Add(ConceptConstraint::Sibling(name(), name(), negated));
        break;
      case 2: {
        static constexpr DepthRelation kRelations[] = {
            DepthRelation::kEq, DepthRelation::kLt, DepthRelation::kGt};
        set.Add(ConceptConstraint::Depth(name(), kRelations[rng() % 3],
                                         rng() % 5, negated));
        break;
      }
    }
  }
  set.set_no_repeat_on_path(rng() % 2 == 0);
  set.set_max_level(rng() % 5);
  return set;
}

// Compiled vs oracle on the path and on every pairwise predicate over
// its labels. Returns the compiled path verdict.
bool CheckPath(const ConstraintSet& set, const LabelPath& labels) {
  const std::vector<NameId> ids = Ids(labels);
  const bool compiled = oracle::CompiledPathAllowed(set, ids);
  EXPECT_EQ(compiled, oracle::PathAllowed(set, labels))
      << JoinLabelPath(labels);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(set.AllowedAtLevel(ids[i], i),
              oracle::AllowedAtLevel(set, labels[i], i));
    for (size_t j = 0; j < labels.size(); ++j) {
      EXPECT_EQ(set.AncestorAllowed(ids[i], ids[j]),
                oracle::AncestorAllowed(set, labels[i], labels[j]));
      EXPECT_EQ(set.SiblingAllowed(ids[i], ids[j]),
                oracle::SiblingAllowed(set, labels[i], labels[j]));
      EXPECT_EQ(set.SiblingExpected(ids[i], ids[j]),
                oracle::SiblingExpected(set, labels[i], labels[j]));
    }
  }
  return compiled;
}

TEST(ConstraintsDifferential, EveryPathOfBothSeeds) {
  const ConstraintSet resume = ResumeConstraints();
  const ConceptSet concepts = ResumeConcepts();
  std::vector<std::string> names;
  for (const Concept& c : concepts.concepts()) names.push_back(c.name);
  names.push_back("resume");
  std::mt19937_64 rng(1);
  std::vector<ConstraintSet> random_sets;
  for (int k = 0; k < 8; ++k) random_sets.push_back(RandomConstraints(rng, names));

  for (uint64_t seed : kCorpusSeeds) {
    const PipelineResult result = RunSeededBatch(seed, /*map_documents=*/false);
    size_t offered = 0;
    size_t pruned = 0;
    std::vector<size_t> random_pruned(random_sets.size(), 0);
    for (const auto& doc : result.documents) {
      if (doc == nullptr) continue;
      const DocumentPaths paths = ExtractPaths(*doc);
      for (size_t i = 0; i < paths.size(); ++i) {
        const LabelPath labels = LabelPathAt(paths, i);
        ++offered;
        pruned += !CheckPath(resume, labels);
        for (size_t k = 0; k < random_sets.size(); ++k) {
          const std::vector<NameId> ids = Ids(labels);
          const bool compiled =
              oracle::CompiledPathAllowed(random_sets[k], ids);
          EXPECT_EQ(compiled, oracle::PathAllowed(random_sets[k], labels));
          random_pruned[k] += !compiled;
        }
      }
    }
    // The pipeline's miner pruned exactly the paths the oracle rejects.
    EXPECT_EQ(result.mining_stats.paths_offered, offered) << seed;
    EXPECT_EQ(result.mining_stats.paths_pruned_by_constraints, pruned)
        << seed;
    EXPECT_GT(pruned, 0u) << seed;
    EXPECT_LT(pruned, offered) << seed;
    size_t sets_pruning = 0;
    for (size_t count : random_pruned) sets_pruning += count > 0;
    EXPECT_GT(sets_pruning, 0u) << seed;
  }
}

TEST(ConstraintsDifferential, RandomSetsOverRandomPaths) {
  const std::vector<std::string> names = {"RC_A", "RC_B", "RC_C",
                                          "RC_D", "RC_E", "RC_F"};
  std::mt19937_64 rng(20020226);
  size_t allowed = 0;
  size_t rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const ConstraintSet set = RandomConstraints(rng, names);
    for (int p = 0; p < 20; ++p) {
      LabelPath labels(1 + rng() % 7);
      for (std::string& label : labels) label = names[rng() % names.size()];
      if (CheckPath(set, labels)) {
        ++allowed;
      } else {
        ++rejected;
      }
    }
    // Levels beyond any path length, for every name.
    for (const std::string& name : names) {
      for (size_t level = 0; level < 9; ++level) {
        EXPECT_EQ(set.AllowedAtLevel(InternName(name), level),
                  oracle::AllowedAtLevel(set, name, level));
      }
    }
  }
  EXPECT_GT(allowed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// The miner decides each path from its parent's verdict and its leaf;
// its pruning counter must match the oracle applied to every path.
TEST(ConstraintsDifferential, MinerPrunesExactlyTheOracleRejects) {
  const std::vector<std::string> names = {"RC_A", "RC_B", "RC_C", "RC_D"};
  std::mt19937_64 rng(3);
  for (int round = 0; round < 300; ++round) {
    const ConstraintSet set = RandomConstraints(rng, names);
    MiningOptions options;
    options.constraints = &set;
    FrequentPathMiner miner(options);
    size_t offered = 0;
    size_t rejected = 0;
    for (int d = 0; d < 5; ++d) {
      std::unique_ptr<Node> root = Node::MakeElement(names[rng() % 4]);
      std::vector<Node*> open = {root.get()};
      const size_t nodes = rng() % 20;
      for (size_t n = 0; n < nodes; ++n) {
        open.push_back(
            open[rng() % open.size()]->AddElement(names[rng() % 4]));
      }
      const DocumentPaths paths = ExtractPaths(*root);
      for (size_t i = 0; i < paths.size(); ++i) {
        ++offered;
        rejected += !oracle::PathAllowed(set, LabelPathAt(paths, i));
      }
      miner.AddDocumentPaths(paths);
    }
    EXPECT_EQ(miner.stats().paths_offered, offered);
    EXPECT_EQ(miner.stats().paths_pruned_by_constraints, rejected);
  }
}

}  // namespace
}  // namespace webre
