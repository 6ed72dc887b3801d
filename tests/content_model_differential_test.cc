// Differential test of Dtd's compiled content models: the Glushkov
// position automata (ContentAutomaton) and the validators built on them
// must agree with the recursive string matcher of content_model_oracle.h
// on every element of every converted and mapped document of both
// corpus seeds, and on random content models — nested sequences and
// choices, every occurrence indicator, #PCDATA, nullable and empty
// groups, and models wider than one (64) and four (256) bitset words.
// ValidateAgainstDtd must report the oracle's violations message for
// message.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "content_model_oracle.h"
#include "schema/dtd_builder.h"
#include "seeded_batch.h"
#include "xml/dtd.h"
#include "xml/dtd_validator.h"
#include "xml/node.h"

namespace webre {
namespace {

// Compiled and oracle verdicts for one child-name sequence; returns the
// compiled one.
bool SameVerdict(const ContentParticle& model,
                 const ContentAutomaton& automaton,
                 const std::vector<std::string>& names) {
  std::vector<NameId> ids;
  std::vector<std::string_view> views;
  for (const std::string& name : names) {
    ids.push_back(InternName(name));
    views.push_back(name);
  }
  const bool compiled = automaton.Accepts(ids);
  std::string word;
  for (const std::string& name : names) word += name + " ";
  EXPECT_EQ(compiled, oracle::Matches(model, views))
      << model.ToString() << " on [" << word << "]";
  return compiled;
}

void ExpectSameValidation(const Node& doc, const Dtd& dtd) {
  const DtdValidationResult compiled = ValidateAgainstDtd(doc, dtd);
  const DtdValidationResult expected = oracle::Validate(doc, dtd);
  ASSERT_EQ(compiled.violations.size(), expected.violations.size());
  for (size_t i = 0; i < compiled.violations.size(); ++i) {
    EXPECT_EQ(compiled.violations[i].element, expected.violations[i].element);
    EXPECT_EQ(compiled.violations[i].message, expected.violations[i].message);
  }
  EXPECT_EQ(ConformsToDtd(doc, dtd), expected.valid());
}

// Checks every declared element of `doc` against its content model, and
// the whole document through both validators. Returns the number of
// element checks.
size_t CheckDocument(const Node& doc, const Dtd& dtd) {
  size_t checks = 0;
  doc.PreOrder([&](const Node& element) {
    if (!element.is_element()) return;
    const size_t index = dtd.IndexOf(element.name_id());
    if (index == Dtd::kNotDeclared) return;
    std::vector<std::string> names;
    for (size_t i = 0; i < element.child_count(); ++i) {
      if (element.child(i)->is_element()) {
        names.emplace_back(element.child(i)->name());
      }
    }
    const ElementDecl& decl = dtd.elements()[index];
    if (decl.pcdata_only) {
      EXPECT_EQ(dtd.content_model(index).Accepts({}), true);
      return;
    }
    SameVerdict(decl.content, dtd.content_model(index), names);
    ++checks;
  });
  ExpectSameValidation(doc, dtd);
  return checks;
}

TEST(ContentModelDifferential, EveryConvertedAndMappedDocumentOfBothSeeds) {
  for (uint64_t seed : kCorpusSeeds) {
    const PipelineResult result = RunSeededBatch(seed, /*map_documents=*/true);
    // The batch's DTD, plus one from the same schema whose optional
    // children carry `?` — more nullable members to match against.
    DtdBuildOptions optional;
    optional.mark_optional = true;
    const Dtd dtds[] = {result.dtd, BuildDtd(result.schema, optional)};
    size_t checks = 0;
    size_t conforming = 0;
    for (size_t i = 0; i < result.documents.size(); ++i) {
      if (result.documents[i] == nullptr) continue;
      for (const Dtd& dtd : dtds) {
        checks += CheckDocument(*result.documents[i], dtd);
        checks += CheckDocument(*result.mapped_documents[i], dtd);
      }
      conforming += ConformsToDtd(*result.documents[i], result.dtd);
    }
    // Both verdicts occur: some documents conform as converted, some
    // do not.
    EXPECT_GT(checks, kSeededPages) << "seed " << seed;
    EXPECT_GT(conforming, 0u) << "seed " << seed;
    EXPECT_LT(conforming, result.documents.size()) << "seed " << seed;
  }
}

// ---- random content models ---------------------------------------------

const std::vector<std::string>& Pool() {
  static const std::vector<std::string> pool = {"a", "b", "c", "d"};
  return pool;
}

Occurrence RandomOccurrence(std::mt19937_64& rng) {
  static constexpr Occurrence kAll[] = {Occurrence::kOne, Occurrence::kOptional,
                                        Occurrence::kStar, Occurrence::kPlus};
  return kAll[rng() % 4];
}

ContentParticle RandomParticle(std::mt19937_64& rng, int depth,
                               const std::vector<std::string>& pool) {
  const int roll = static_cast<int>(rng() % 100);
  if (depth == 0 || roll < 40) {
    if (roll % 10 == 0) return ContentParticle::Pcdata();
    return ContentParticle::Element(pool[rng() % pool.size()],
                                    RandomOccurrence(rng));
  }
  std::vector<ContentParticle> members(rng() % 5);  // empty groups too
  for (ContentParticle& member : members) {
    member = RandomParticle(rng, depth - 1, pool);
  }
  return roll < 70 ? ContentParticle::Sequence(std::move(members),
                                                RandomOccurrence(rng))
                   : ContentParticle::Choice(std::move(members),
                                             RandomOccurrence(rng));
}

// Appends a word of the particle's language (a choice with no members
// matches nothing; it contributes a name no model contains).
void SampleWord(const ContentParticle& particle, std::mt19937_64& rng,
                std::vector<std::string>& out) {
  size_t reps = 1;
  switch (particle.occurrence) {
    case Occurrence::kOne:
      break;
    case Occurrence::kOptional:
      reps = rng() % 2;
      break;
    case Occurrence::kStar:
      reps = rng() % 4;
      break;
    case Occurrence::kPlus:
      reps = 1 + rng() % 3;
      break;
  }
  for (size_t r = 0; r < reps; ++r) {
    switch (particle.kind) {
      case ContentParticle::Kind::kElement:
        out.push_back(particle.name);
        break;
      case ContentParticle::Kind::kPcdata:
        break;
      case ContentParticle::Kind::kSequence:
        for (const ContentParticle& member : particle.children) {
          SampleWord(member, rng, out);
        }
        break;
      case ContentParticle::Kind::kChoice:
        if (particle.children.empty()) {
          out.push_back("unmatchable");
        } else {
          SampleWord(particle.children[rng() % particle.children.size()], rng,
                     out);
        }
        break;
    }
  }
}

// Deletes, inserts, swaps or duplicates a name or two, so both verdicts
// occur.
void Mutate(std::vector<std::string>& word, std::mt19937_64& rng,
            const std::vector<std::string>& pool) {
  const size_t edits = rng() % 3;
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = word.empty() ? 0 : rng() % word.size();
    switch (rng() % 4) {
      case 0:
        if (!word.empty()) word.erase(word.begin() + at);
        break;
      case 1:
        word.insert(word.begin() + at,
                    rng() % 8 == 0 ? std::string("zz") : pool[rng() % pool.size()]);
        break;
      case 2:
        if (word.size() > 1) std::swap(word[at], word[(at + 1) % word.size()]);
        break;
      case 3:
        if (!word.empty()) word.insert(word.begin() + at, word[at]);
        break;
    }
  }
}

TEST(ContentModelDifferential, RandomSmallModels) {
  std::mt19937_64 rng(20020226);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int model_index = 0; model_index < 3000; ++model_index) {
    const ContentParticle model =
        RandomParticle(rng, static_cast<int>(rng() % 5), Pool());
    const ContentAutomaton automaton(model);
    for (int w = 0; w < 12; ++w) {
      std::vector<std::string> word;
      SampleWord(model, rng, word);
      Mutate(word, rng, Pool());
      if (SameVerdict(model, automaton, word)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    // Every model is also asked about the empty sequence.
    SameVerdict(model, automaton, {});
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// A sequence of `width` element leaves, some wrapped in nested groups,
// over a wider name pool: more positions than one (or four) bitset
// words hold.
ContentParticle WideModel(std::mt19937_64& rng, size_t width,
                          const std::vector<std::string>& pool) {
  std::vector<ContentParticle> members;
  size_t leaves = 0;
  while (leaves < width) {
    if (rng() % 10 == 0 && leaves + 3 <= width) {
      std::vector<ContentParticle> group;
      for (int k = 0; k < 3; ++k) {
        group.push_back(ContentParticle::Element(pool[rng() % pool.size()],
                                                 RandomOccurrence(rng)));
      }
      members.push_back(rng() % 2 == 0
                            ? ContentParticle::Choice(std::move(group),
                                                      RandomOccurrence(rng))
                            : ContentParticle::Sequence(std::move(group),
                                                        RandomOccurrence(rng)));
      leaves += 3;
    } else {
      members.push_back(ContentParticle::Element(pool[rng() % pool.size()],
                                                 RandomOccurrence(rng)));
      ++leaves;
    }
  }
  return ContentParticle::Sequence(std::move(members), RandomOccurrence(rng));
}

TEST(ContentModelDifferential, ModelsWiderThanOneAndFourWords) {
  std::mt19937_64 rng(1);
  std::vector<std::string> pool;
  for (char c = 'a'; c <= 'x'; ++c) pool.push_back(std::string("w") += c);
  for (size_t width : {65u, 130u, 257u, 300u}) {
    size_t accepted = 0;
    for (int model_index = 0; model_index < 6; ++model_index) {
      const ContentParticle model = WideModel(rng, width, pool);
      const ContentAutomaton automaton(model);
      EXPECT_EQ(automaton.position_count(), width);
      for (int w = 0; w < 8; ++w) {
        std::vector<std::string> word;
        SampleWord(model, rng, word);
        if (w % 2 == 1) Mutate(word, rng, pool);
        accepted += SameVerdict(model, automaton, word);
      }
    }
    EXPECT_GT(accepted, 0u) << width;
  }
}

// Random documents over random declarations: both validators must list
// the same violations, message for message.
TEST(ContentModelDifferential, RandomDocumentsValidateIdentically) {
  std::mt19937_64 rng(7);
  std::vector<std::string> pool = Pool();
  pool.push_back("e");  // declared by no DTD below
  size_t invalid = 0;
  for (int round = 0; round < 400; ++round) {
    Dtd dtd;
    dtd.set_root(rng() % 4 == 0 ? "b" : "a");
    for (size_t k = 0; k < Pool().size(); ++k) {
      ElementDecl decl;
      decl.name = Pool()[k];
      decl.pcdata_only = rng() % 5 == 0;
      if (!decl.pcdata_only) decl.content = RandomParticle(rng, 3, Pool());
      dtd.AddElement(std::move(decl));
    }
    std::unique_ptr<Node> root = Node::MakeElement("a");
    std::vector<Node*> open = {root.get()};
    const size_t nodes = 1 + rng() % 12;
    for (size_t n = 0; n < nodes; ++n) {
      Node* parent = open[rng() % open.size()];
      if (rng() % 6 == 0) {
        parent->AddChild(Node::MakeText("t"));
        continue;
      }
      open.push_back(parent->AddElement(pool[rng() % pool.size()]));
    }
    ExpectSameValidation(*root, dtd);
    invalid += !ConformsToDtd(*root, dtd);
  }
  EXPECT_GT(invalid, 0u);
  EXPECT_LT(invalid, 400u);
}

}  // namespace
}  // namespace webre
