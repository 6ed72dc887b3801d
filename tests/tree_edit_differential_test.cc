// Differential test of the flat Zhang–Shasha kernel against the
// nested-vector oracle it replaced: the two must return the very same
// double (EXPECT_EQ, not a tolerance) on random trees of varied shape,
// under unit and non-unit costs, on degenerate trees and on corpus
// pairs. ComputeEditScript shares the kernel's flattening and forest
// table, so its cost is checked against the distance on the same inputs.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "mapping/document_mapper.h"
#include "mapping/edit_script.h"
#include "mapping/tree_edit.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "tree_edit_oracle.h"

namespace webre {
namespace {

// Random ordered tree: depth at most `max_depth`, labels drawn from
// `labels` names (few labels, so relabel ties are common), a sprinkle of
// text children (which both kernels ignore), at most `budget` elements.
std::unique_ptr<Node> RandomTree(std::mt19937& rng, int max_depth,
                                 int labels, int budget) {
  auto label = [&]() {
    return std::string(1, static_cast<char>('a' + rng() % labels));
  };
  auto root = Node::MakeElement(label());
  int remaining = budget - 1;
  // Grow by repeatedly attaching a child under a random existing node.
  std::vector<std::pair<Node*, int>> open = {{root.get(), 0}};
  while (remaining > 0 && rng() % 32 != 0) {
    // Half the time extend the newest node, so deep chains occur too.
    auto [parent, depth] =
        rng() % 2 == 0 ? open.back() : open[rng() % open.size()];
    if (rng() % 5 == 0) parent->AddText("t");
    if (depth >= max_depth) continue;
    Node* child = parent->AddElement(label());
    open.emplace_back(child, depth + 1);
    --remaining;
  }
  return root;
}

struct Costs {
  const char* name;
  TreeEditCosts costs;
  // Dyadic costs add up exactly in any order, so an edit script's cost
  // equals the distance bit for bit; other costs round differently in
  // the script's sum of operations than in the table's running minima.
  bool exact_sums;
};

const Costs kCostSets[] = {
    {"unit", {}, true},
    {"dyadic", {0.5, 2.0, 1.25}, true},
    {"relabel_dearer_than_delete_insert", {1.0, 1.0, 3.0}, true},
    {"inexact", {0.7, 1.3, 0.9}, false},
};

void ExpectKernelsAgree(const Node& a, const Node& b, const Costs& costs,
                        const std::string& what) {
  const double flat = TreeEditDistance(a, b, costs.costs);
  EXPECT_EQ(flat, oracle::TreeEditDistance(a, b, costs.costs))
      << what << " costs=" << costs.name;
  const double script = ComputeEditScript(a, b, costs.costs).cost;
  if (costs.exact_sums) {
    EXPECT_EQ(script, flat) << what << " costs=" << costs.name;
  } else {
    EXPECT_NEAR(script, flat, 1e-9 * flat) << what << " costs=" << costs.name;
  }
}

TEST(TreeEditDifferentialTest, RandomTreesMatchTheOracleExactly) {
  std::mt19937 rng(20020226);
  for (int round = 0; round < 600; ++round) {
    const int labels = 2 + round % 3;    // 2..4 labels
    const int depth_a = 1 + round % 12;  // up to 12 deep
    const int depth_b = 1 + (round * 7) % 12;
    const int budget = 1 + static_cast<int>(rng() % 48);
    auto a = RandomTree(rng, depth_a, labels, budget);
    auto b =
        RandomTree(rng, depth_b, labels, 1 + static_cast<int>(rng() % 48));
    for (const Costs& costs : kCostSets) {
      ExpectKernelsAgree(*a, *b, costs,
                         "round " + std::to_string(round) + ": " +
                             a->DebugString() + " vs " + b->DebugString());
    }
  }
}

TEST(TreeEditDifferentialTest, DegenerateTrees) {
  auto single_a = Node::MakeElement("a");
  auto single_b = Node::MakeElement("b");
  auto text_only = Node::MakeElement("a");
  text_only->AddText("only text");
  text_only->AddText("more text");
  auto text_root = Node::MakeText("a text root has no name");
  auto empty_name = Node::MakeElement("");
  auto chain = Node::MakeElement("a");
  Node* tip = chain.get();
  for (int i = 0; i < 12; ++i) tip = tip->AddElement(i % 2 == 0 ? "b" : "a");
  auto wide = Node::MakeElement("a");
  for (int i = 0; i < 30; ++i) wide->AddElement(i % 3 == 0 ? "a" : "b");

  const std::vector<const Node*> trees = {
      single_a.get(), single_b.get(), text_only.get(), text_root.get(),
      empty_name.get(), chain.get(), wide.get()};
  for (const Node* a : trees) {
    for (const Node* b : trees) {
      for (const Costs& costs : kCostSets) {
        ExpectKernelsAgree(*a, *b, costs,
                           a->DebugString() + " vs " + b->DebugString());
      }
    }
  }
  EXPECT_EQ(TreeEditDistance(*single_a, *single_a), 0.0);
  EXPECT_EQ(TreeEditDistance(*single_a, *single_b), 1.0);
  EXPECT_EQ(TreeEditDistance(*text_only, *single_a), 0.0);
  // A text root and an element named "" carry the same (empty) label.
  EXPECT_EQ(TreeEditDistance(*text_root, *empty_name), 0.0);
}

TEST(TreeEditDifferentialTest, ScratchReuseDoesNotLeakBetweenCalls) {
  // Per-thread buffers persist across calls: a big pair, then small
  // ones, then a pair past the retention cap, in varying order, must
  // each equal a fresh oracle run.
  std::mt19937 rng(7);
  std::vector<std::unique_ptr<Node>> trees;
  for (int i = 0; i < 12; ++i) {
    trees.push_back(RandomTree(rng, 1 + i, 2 + i % 3, 3 + 9 * i));
  }
  auto huge_a = Node::MakeElement("a");
  auto huge_b = Node::MakeElement("a");
  for (int i = 0; i < 1100; ++i) {
    huge_a->AddElement(i % 2 == 0 ? "a" : "b");
    huge_b->AddElement(i % 3 == 0 ? "a" : "b");
  }
  trees.push_back(std::move(huge_a));
  trees.push_back(std::move(huge_b));
  std::vector<double> expected;
  for (size_t i = 0; i + 1 < trees.size(); ++i) {
    expected.push_back(oracle::TreeEditDistance(*trees[i], *trees[i + 1]));
  }
  auto check = [&](bool reversed) {
    for (size_t k = 0; k < expected.size(); ++k) {
      const size_t i = reversed ? expected.size() - 1 - k : k;
      EXPECT_EQ(TreeEditDistance(*trees[i], *trees[i + 1]), expected[i])
          << "pair " << i << (reversed ? " reversed" : "");
    }
  };
  check(false);
  check(true);
  std::thread other([&] { check(true); });
  other.join();
}

TEST(TreeEditDifferentialTest, CorpusPairsMatchTheOracleExactly) {
  ConceptSet concepts = ResumeConcepts();
  ConstraintSet constraints = ResumeConstraints();
  SynonymRecognizer recognizer(&concepts);
  DocumentConverter converter(&concepts, &recognizer, &constraints);
  MiningOptions mining;
  mining.constraints = &constraints;
  FrequentPathMiner miner(mining);
  std::vector<std::unique_ptr<Node>> docs;
  for (size_t i = 0; i < 40; ++i) {
    docs.push_back(converter.Convert(GenerateResume(i).html));
    miner.AddDocument(*docs.back());
  }
  const MajoritySchema schema = miner.Discover();
  const Dtd dtd = BuildDtd(schema);
  const DocumentMapper mapper(schema, dtd);
  for (size_t i = 0; i < docs.size(); ++i) {
    const std::string what = "doc " + std::to_string(i);
    const Node& next = *docs[(i + 1) % docs.size()];
    const ConformResult mapped = mapper.Conform(*docs[i]);
    for (const Costs& costs : {kCostSets[0], kCostSets[3]}) {
      ExpectKernelsAgree(*docs[i], next, costs, what + " vs next");
      ExpectKernelsAgree(*docs[i], *mapped.document, costs,
                         what + " vs mapped");
    }
  }
}

}  // namespace
}  // namespace webre
