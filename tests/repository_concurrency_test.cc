// Concurrency tests for the sharded repository: queries run in
// parallel with each other and with concurrent Add. Built with
// WEBRE_SANITIZE=thread these double as the TSan proof that the
// shard/summary locking discipline has no data races; without a
// sanitizer they still exercise the same interleavings and check the
// serving-layer invariants (snapshot-consistent results, dense ids,
// monotone size).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "repository/repository.h"

namespace webre {
namespace {

std::unique_ptr<Node> MakeDoc(size_t index) {
  auto root = Node::MakeElement("resume");
  Node* education = root->AddElement("EDUCATION");
  Node* date = education->AddElement("DATE");
  date->set_val("June 19" + std::to_string(80 + index % 20));
  education->AddElement("INSTITUTION");
  if (index % 3 == 0) {
    Node* skills = root->AddElement("SKILLS");
    Node* lang = skills->AddElement("LANGUAGE");
    lang->set_val(index % 2 == 0 ? "Java" : "C++");
  }
  return root;
}

// Readers hammer every query shape (no predicate, final-step predicate,
// seeded suffix, every column) while writers keep admitting documents —
// freezing them, freeing their trees, and splicing occurrences and
// values into the summary's columns, sometimes out of id order. Under
// TSan this is the proof that freeze + release + lock-free occurrence
// publication is race-free. A result must always be internally
// consistent: sorted by document id with every match carrying a valid
// element.
TEST(RepositoryConcurrencyTest, ParallelQueriesDuringConcurrentAdds) {
  RepositoryOptions options;
  options.num_shards = 4;
  XmlRepository repo(options);
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(repo.Add(MakeDoc(i)).ok());
  }

  constexpr size_t kWriters = 2;
  constexpr size_t kDocsPerWriter = 64;
  constexpr size_t kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  // Which MakeDoc index each admitted id holds: writers race for ids.
  std::vector<size_t> index_of(32 + kWriters * kDocsPerWriter);
  for (size_t i = 0; i < 32; ++i) index_of[i] = i;

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&repo, &failures, &index_of, w] {
      for (size_t i = 0; i < kDocsPerWriter; ++i) {
        const size_t index = w * kDocsPerWriter + i;
        StatusOr<DocId> id = repo.Add(MakeDoc(index));
        if (!id.ok()) {
          failures.fetch_add(1);
        } else {
          index_of[*id] = index;  // ids are unique: no two writers share
        }
      }
    });
  }
  static const char* const kQueries[] = {
      "/resume/EDUCATION/DATE",              // no predicate
      "//LANGUAGE[val~\"java\"]",            // final-step predicate
      "/resume/EDUCATION[val~\"x\"]/DATE",   // seeded, nothing matches
      "/resume/EDUCATION/DATE[val~\"19\"]",  // final-step predicate
      "//EDUCATION/DATE[val~\"199\"]",       // under a // prefix
      "//*[val~\"c\"]",                      // every column
      "/resume/*/LANGUAGE[val~\"C+\"]",      // under a * step
      "//*",                                 // wildcard, no predicate
  };
  constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&repo, &stop, &failures, r] {
      size_t round = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const char* text = kQueries[(r + round++) % kQueryCount];
        auto matches = repo.Query(text);
        if (!matches.ok()) {
          failures.fetch_add(1);
          continue;
        }
        DocId last = 0;
        for (const QueryMatch& m : *matches) {
          // Every match carries its frozen block and must name a real
          // element (name() reads through the block, so this also
          // exercises the publication happens-before under TSan).
          if (m.doc < last || m.flat == nullptr ||
              m.name() == kInvalidNameId) {
            failures.fetch_add(1);
            break;
          }
          last = m.doc;
        }
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(repo.size(), 32 + kWriters * kDocsPerWriter);

  // Once writers are done the repository is quiescent: every document
  // is present and every answer equals that of a single-shard
  // repository built serially from the same documents under the same
  // ids — so the summary's occurrences and value columns, spliced under
  // out-of-order arrival, are exactly the in-order ones.
  auto dates = repo.Query("/resume/EDUCATION/DATE");
  ASSERT_TRUE(dates.ok());
  EXPECT_EQ(dates->size(), repo.size());
  for (size_t i = 0; i < repo.size(); ++i) {
    EXPECT_NE(repo.flat_document(i), nullptr) << "doc " << i;
  }
  RepositoryOptions serial_options;
  serial_options.num_shards = 1;
  XmlRepository serial(serial_options);
  for (size_t id = 0; id < repo.size(); ++id) {
    ASSERT_EQ(serial.Add(MakeDoc(index_of[id])).value(), id);
  }
  // (doc, pos, name, val): pos is the element's pre-order index,
  // identical in both repositories.
  auto answer = [](const XmlRepository& r, const char* text) {
    std::vector<std::tuple<DocId, uint32_t, NameId, std::string>> out;
    const std::vector<QueryMatch> matches = r.Query(text).value();
    for (const QueryMatch& m : matches) {
      out.emplace_back(m.doc, m.pos, m.name(), std::string(m.val()));
    }
    return out;
  };
  const uint64_t bytes_before = repo.query_stats().predicate_bytes_scanned;
  for (const char* text : kQueries) {
    EXPECT_EQ(answer(repo, text), answer(serial, text)) << text;
  }
  // Same value columns, spliced or appended: the same bytes swept.
  EXPECT_EQ(repo.query_stats().predicate_bytes_scanned - bytes_before,
            serial.query_stats().predicate_bytes_scanned);
}

// DiscoverSchema and Stats may race with Add: both read each shard
// under its shared lock (DiscoverSchema copies the FlatDoc pointers and
// mines them outside it), so they must always see a prefix-consistent
// corpus and never a half-published document.
TEST(RepositoryConcurrencyTest, DiscoverAndStatsDuringConcurrentAdds) {
  RepositoryOptions options;
  options.num_shards = 3;
  XmlRepository repo(options);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(repo.Add(MakeDoc(i)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::thread writer([&repo, &failures] {
    for (size_t i = 0; i < 96; ++i) {
      if (!repo.Add(MakeDoc(i)).ok()) failures.fetch_add(1);
    }
  });
  std::thread miner([&repo, &stop, &failures] {
    MiningOptions mining;
    mining.sup_threshold = 0.2;
    while (!stop.load(std::memory_order_acquire)) {
      MajoritySchema schema = repo.DiscoverSchema(mining);
      if (schema.root().label != "resume") failures.fetch_add(1);
      RepositoryStats stats = repo.Stats();
      // Every document contributes at least 4 elements.
      if (stats.elements < stats.documents * 4) failures.fetch_add(1);
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  miner.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(repo.size(), 16u + 96u);
  EXPECT_EQ(repo.Stats().documents, repo.size());
}

}  // namespace
}  // namespace webre
