// Value-column tests: every summary path's `column` / `column_off` must
// be the concatenated lowered values of its occurrences under any
// arrival order, and the column-seeded query executor must return
// exactly the naive evaluator's (doc, pos) sequence — one and four
// shards — on the edge cases a concatenated
// column invites: hits straddling two values, repeated hits inside one
// value, empty values, needles longer than any value or equal to one.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "naive_query_oracle.h"
#include "repository/path_index.h"
#include "repository/repository.h"
#include "util/rng.h"
#include "util/strings.h"
#include "xml/flat_doc.h"

namespace webre {
namespace {

using Canonical = std::vector<std::pair<size_t, uint32_t>>;

// The value of one occurrence as the column should hold it.
std::string_view RawVal(const PathOccurrence& occ) {
  return occ.flat->val(occ.pos);
}

// Every entry's column is the concatenation of its occurrences' raw
// values, in occurrence order, and occurrences are (doc, pos)-sorted.
void ExpectColumnsConsistent(const PathIndex& index) {
  for (uint32_t id = 0; id < index.path_count(); ++id) {
    const PathIndex::Entry& entry = index.entry(id);
    ASSERT_EQ(entry.column_off.size(), entry.occurrences.size() + 1)
        << "path " << id;
    std::string expected;
    EXPECT_EQ(entry.column_off[0], 0u) << "path " << id;
    for (size_t i = 0; i < entry.occurrences.size(); ++i) {
      expected += RawVal(entry.occurrences[i]);
      EXPECT_EQ(entry.column_off[i + 1], expected.size())
          << "path " << id << " occurrence " << i;
      if (i > 0) {
        const PathOccurrence& a = entry.occurrences[i - 1];
        const PathOccurrence& b = entry.occurrences[i];
        EXPECT_TRUE(a.doc < b.doc || (a.doc == b.doc && a.pos < b.pos))
            << "path " << id << " occurrence " << i;
      }
    }
    EXPECT_EQ(entry.column, expected) << "path " << id;
  }
}

// Random trees over a tiny label and value alphabet, so that adjacent
// values in one column frequently concatenate into needle text that no
// single value contains.
std::unique_ptr<Node> RandomTree(Rng& rng) {
  static const char* const kLabels[] = {"A", "B", "C"};
  static const char* const kVals[] = {"", "a", "b", "Ab", "ba", "aB",
                                      "abab", "bb", "AAB"};
  auto root = Node::MakeElement("r");
  if (rng.NextBool(0.3)) root->set_val(kVals[rng.NextBelow(9)]);
  std::vector<std::pair<Node*, size_t>> open{{root.get(), 0}};
  while (!open.empty()) {
    auto [node, depth] = open.back();
    open.pop_back();
    if (depth >= 3) continue;
    const size_t children = rng.NextBelow(4);
    for (size_t c = 0; c < children; ++c) {
      Node* child = node->AddElement(kLabels[rng.NextBelow(3)]);
      const char* val = kVals[rng.NextBelow(9)];
      if (*val != '\0') child->set_val(val);
      open.emplace_back(child, depth + 1);
    }
  }
  return root;
}

// A document with a fixed shape: /r/A* values in order, each A with one
// B child carrying `b_val`.
std::unique_ptr<Node> Doc(std::vector<std::string> a_vals,
                          const std::string& b_val = "") {
  auto root = Node::MakeElement("r");
  for (const std::string& val : a_vals) {
    Node* a = root->AddElement("A");
    if (!val.empty()) a->set_val(val);
    Node* b = a->AddElement("B");
    if (!b_val.empty()) b->set_val(b_val);
  }
  return root;
}

// Two repositories over the same documents: one and four shards.
// Queries are checked against the naive evaluator over the retained
// originals.
class ColumnRepos {
 public:
  ColumnRepos() {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      RepositoryOptions options;
      options.num_shards = shards;
      repos_.push_back(std::make_unique<XmlRepository>(options));
      names_.push_back(std::to_string(shards) + " shards");
    }
  }

  void Add(std::unique_ptr<Node> doc) {
    for (auto& repo : repos_) ASSERT_TRUE(repo->Add(doc->Clone()).ok());
    order_.push_back(oracle::ElementOrderIndex(*doc));
    docs_.push_back(std::move(doc));
  }

  Canonical Expected(const PathQuery& query) const {
    Canonical out;
    for (size_t id = 0; id < docs_.size(); ++id) {
      std::vector<uint32_t> positions;
      for (const Node* node : oracle::NaiveEvaluate(query, *docs_[id])) {
        positions.push_back(order_[id].at(node));
      }
      std::sort(positions.begin(), positions.end());
      for (uint32_t pos : positions) out.emplace_back(id, pos);
    }
    return out;
  }

  // Checks every repository against the oracle; returns the oracle's
  // answer so callers can pin the case they meant to exercise.
  Canonical Check(const std::string& text) const {
    const PathQuery query = PathQuery::Parse(text).value();
    const Canonical expected = Expected(query);
    for (size_t r = 0; r < repos_.size(); ++r) {
      const XmlRepository& repo = *repos_[r];
      Canonical got;
      for (const QueryMatch& m : repo.Query(query)) {
        got.emplace_back(m.doc, m.pos);
      }
      EXPECT_EQ(got, expected) << names_[r] << ": " << text;
    }
    return expected;
  }

  const XmlRepository& repo(size_t i) const { return *repos_[i]; }
  size_t size() const { return repos_.size(); }

 private:
  std::vector<std::unique_ptr<XmlRepository>> repos_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Node>> docs_;
  std::vector<std::map<const Node*, uint32_t>> order_;
};

TEST(QueryColumn, StraddlingHitsNeverMatch) {
  ColumnRepos repos;
  // Column /r/A: "ab" "cd" | "xy" — "bc" straddles two values of one
  // document, "dx" the document boundary, "cdx" a whole value and more.
  repos.Add(Doc({"ab", "cd"}));
  repos.Add(Doc({"xy"}));
  EXPECT_TRUE(repos.Check("/r/A[val~\"bc\"]").empty());
  EXPECT_TRUE(repos.Check("/r/A[val~\"dx\"]").empty());
  EXPECT_TRUE(repos.Check("//A[val~\"cdx\"]").empty());
  EXPECT_TRUE(repos.Check("//A[val~\"bc\"]/B").empty());
  // The values themselves still match.
  EXPECT_EQ(repos.Check("/r/A[val~\"c\"]"), (Canonical{{0, 3}}));
  EXPECT_EQ(repos.Check("/r/A[val~\"y\"]"), (Canonical{{1, 1}}));
}

TEST(QueryColumn, RepeatedHitsInOneValueCountOnce) {
  ColumnRepos repos;
  repos.Add(Doc({"abab", "b", "ABAB"}));
  EXPECT_EQ(repos.Check("/r/A[val~\"ab\"]"), (Canonical{{0, 1}, {0, 5}}));
  EXPECT_EQ(repos.Check("//A[val~\"b\"]/B"),
            (Canonical{{0, 2}, {0, 4}, {0, 6}}));
}

TEST(QueryColumn, EmptyValuesAndOverlongNeedles) {
  ColumnRepos repos;
  repos.Add(Doc({"", "", "q"}));
  repos.Add(Doc({""}));
  repos.Add(Doc({"", "qq", ""}));
  EXPECT_TRUE(repos.Check("/r/A[val~\"qqq\"]").empty());
  EXPECT_TRUE(repos.Check("//*[val~\"qqqq\"]").empty());
  EXPECT_TRUE(repos.Check("/r/A/B[val~\"q\"]").empty());  // all empty
  EXPECT_EQ(repos.Check("/r/A[val~\"q\"]"), (Canonical{{0, 5}, {2, 3}}));
}

TEST(QueryColumn, NeedleEqualToWholeValue) {
  ColumnRepos repos;
  repos.Add(Doc({"June", "june 1996", "Jun"}));
  repos.Add(Doc({"JUNE"}));
  EXPECT_EQ(repos.Check("/r/A[val~\"june\"]"),
            (Canonical{{0, 1}, {0, 3}, {1, 1}}));
  EXPECT_EQ(repos.Check("/r/A[val~\"june 1996\"]"), (Canonical{{0, 3}}));
}

TEST(QueryColumn, FullCoverAndLeadingPredicates) {
  ColumnRepos repos;
  repos.Add(Doc({"ab", "cd"}, "bc"));
  repos.Add(Doc({"xbc"}, "d"));
  auto root_with_val = Doc({"b"});
  root_with_val->set_val("abc");
  repos.Add(std::move(root_with_val));
  // //*[val~…] matches every summary path and sweeps every column.
  EXPECT_FALSE(repos.Check("//*[val~\"bc\"]").empty());
  EXPECT_FALSE(repos.Check("//*[val~\"b\"]/B").empty());
  // A predicate on step 0, under // and under *.
  EXPECT_FALSE(repos.Check("//A[val~\"b\"]").empty());
  EXPECT_EQ(repos.Check("/*[val~\"ab\"]"), (Canonical{{2, 0}}));
  EXPECT_FALSE(repos.Check("/*[val~\"c\"]/A").empty());
  EXPECT_TRUE(repos.Check("/*[val~\"zz\"]//B").empty());
}

// One matched path, two, three to eight, and more than eight take
// different merge shapes; labels interleave within each document, and
// every other document holds no hit, so each shape must order matches
// from many runs by (doc, pos) across gaps in the document ids.
TEST(QueryColumn, SeedsFromAnyNumberOfPathsMergeInOrder) {
  static const char* const kLabels[] = {"L0", "L1", "L2", "L3",
                                        "L4", "L5", "L6", "L7",
                                        "L8", "L9", "L10", "L11"};
  for (const size_t labels : {size_t{1}, size_t{2}, size_t{5}, size_t{12}}) {
    ColumnRepos repos;
    Rng rng(labels);
    for (size_t d = 0; d < 8; ++d) {
      auto root = Node::MakeElement("r");
      for (size_t c = 0; c < 30; ++c) {
        Node* child = root->AddElement(kLabels[rng.NextBelow(labels)]);
        child->set_val(d % 2 == 0 && rng.NextBool(0.5) ? "xy" : "y");
        if (rng.NextBool(0.3)) child->AddElement("M")->set_val("x");
      }
      repos.Add(std::move(root));
    }
    EXPECT_FALSE(repos.Check("/r/*[val~\"x\"]").empty()) << labels;
    EXPECT_FALSE(repos.Check("/r/*").empty()) << labels;
    EXPECT_FALSE(repos.Check("//*[val~\"x\"]").empty()) << labels;
    EXPECT_FALSE(repos.Check("//*").empty()) << labels;
    EXPECT_FALSE(repos.Check("/r/*[val~\"y\"]/M").empty()) << labels;
  }
}

TEST(QueryColumn, SecondPredicateGoesThroughEvaluateFrom) {
  ColumnRepos repos;
  repos.Add(Doc({"java", "c++"}, "senior"));
  repos.Add(Doc({"Java"}, "junior"));
  repos.Add(Doc({"prolog"}, "senior"));
  EXPECT_EQ(repos.Check("/r/A[val~\"java\"]/B[val~\"sen\"]"),
            (Canonical{{0, 2}}));
  EXPECT_EQ(repos.Check("//A[val~\"a\"]/B[val~\"ior\"]"),
            (Canonical{{0, 2}, {1, 2}}));
  EXPECT_EQ(repos.Check("/r/A[val~\"o\"]//B[val~\"s\"]"),
            (Canonical{{2, 2}}));
  for (size_t r = 0; r < repos.size(); ++r) {
    // Shape-defined plans: two seeded (child-axis prefix), one scan.
    const obs::QueryStatsView stats = repos.repo(r).query_stats();
    EXPECT_EQ(stats.plan_seeded, 2u);
    EXPECT_EQ(stats.plan_scan, 1u);
    EXPECT_EQ(stats.prefix_hits, 3u);
  }
}

TEST(QueryColumn, RandomCorporaAgreeWithNaiveEvaluation) {
  static const char* const kNames[] = {"A", "B", "C", "*", "r"};
  static const char* const kNeedles[] = {"ab", "ba", "b", "aab", "abab",
                                         "bba", "bab", "aa"};
  Rng rng(20021004);
  for (size_t round = 0; round < 3; ++round) {
    ColumnRepos repos;
    for (size_t i = 0; i < 25; ++i) repos.Add(RandomTree(rng));
    for (size_t q = 0; q < 40; ++q) {
      std::string text;
      const size_t steps = 1 + rng.NextBelow(3);
      bool predicate = false;
      for (size_t s = 0; s < steps; ++s) {
        text += rng.NextBool(0.4) ? "//" : "/";
        text += s == 0 && rng.NextBool(0.4) ? "r" : kNames[rng.NextBelow(5)];
        if (rng.NextBool(0.5) || (s + 1 == steps && !predicate)) {
          text += std::string("[val~\"") + kNeedles[rng.NextBelow(8)] + "\"]";
          predicate = true;
        }
      }
      repos.Check(text);
    }
  }
}

// Columns spliced under out-of-order arrival: every AddDocument call
// must leave each entry's column equal to its occurrences' concatenated
// lowered values.
TEST(QueryColumn, OutOfOrderAddDocumentKeepsColumnsConsistent) {
  Rng rng(1302);
  std::vector<std::unique_ptr<FlatDoc>> flats;
  for (size_t i = 0; i < 24; ++i) {
    flats.push_back(FlatDoc::Freeze(*RandomTree(rng)));
  }
  std::vector<DocId> ids(flats.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  // A fixed shuffle that inserts at the front, the back and the middle.
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBelow(i)]);
  }
  PathIndex flat_index;
  for (DocId id : ids) {
    flat_index.AddDocument(CollectLocalPaths(*flats[id]), id, *flats[id]);
    ExpectColumnsConsistent(flat_index);
    if (HasFailure()) return;
  }
  // In-order arrival and restore (LoadEntry) build the same columns.
  PathIndex in_order;
  for (DocId id = 0; id < flats.size(); ++id) {
    in_order.AddDocument(CollectLocalPaths(*flats[id]), id, *flats[id]);
  }
  PathIndex loaded;
  for (uint32_t id = 0; id < in_order.path_count(); ++id) {
    const PathIndex::Entry& entry = in_order.entry(id);
    ASSERT_TRUE(loaded
                    .LoadEntry(entry.parent, entry.name, entry.docs,
                               entry.occurrences)
                    .ok());
  }
  ExpectColumnsConsistent(loaded);
  ASSERT_EQ(flat_index.path_count(), in_order.path_count());
  for (uint32_t id = 0; id < in_order.path_count(); ++id) {
    // Arrival order changes path ids, not paths: find this one in the
    // shuffled index by its labels.
    std::vector<NameId> labels;
    for (uint32_t p = id; p != PathIndex::kNoPath;
         p = in_order.entry(p).parent) {
      labels.insert(labels.begin(), in_order.entry(p).name);
    }
    const uint32_t shuffled = flat_index.FindPath(labels.data(), labels.size());
    ASSERT_NE(shuffled, PathIndex::kNoPath);
    EXPECT_EQ(flat_index.entry(shuffled).column, in_order.entry(id).column);
    EXPECT_EQ(flat_index.entry(shuffled).column_off,
              in_order.entry(id).column_off);
    EXPECT_EQ(loaded.entry(id).column, in_order.entry(id).column);
    EXPECT_EQ(loaded.entry(id).column_off, in_order.entry(id).column_off);
  }
}

}  // namespace
}  // namespace webre
