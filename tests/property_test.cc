// Property-style invariant sweeps over the generated corpus, driven by
// parameterized gtest. These pin down the pipeline-wide guarantees the
// unit tests only spot-check:
//   1. no-text-loss: every word of the page's visible text survives into
//      some `val` of the converted document;
//   2. closure: the converted document contains only concept elements;
//   3. determinism: conversion is a pure function of its input;
//   4. support anti-monotonicity along schema paths;
//   5. threshold monotonicity of the discovered schema;
//   6. mapped documents conform to the derived DTD;
//   7. tree-edit-distance metric axioms on real converted documents.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "html/parser.h"
#include "html/tidy.h"
#include "mapping/document_mapper.h"
#include "mapping/tree_edit.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"
#include "util/strings.h"
#include "xml/dtd_validator.h"
#include "xml/reader.h"
#include "xml/writer.h"

namespace webre {
namespace {

struct Fixture {
  Fixture()
      : concepts(ResumeConcepts()),
        constraints(ResumeConstraints()),
        recognizer(&concepts),
        converter(&concepts, &recognizer, &constraints) {}

  ConceptSet concepts;
  ConstraintSet constraints;
  SynonymRecognizer recognizer;
  DocumentConverter converter;
};

Fixture& Shared() {
  static Fixture& fixture = *new Fixture();
  return fixture;
}

// Words of all text nodes in the (tidied) HTML tree.
std::vector<std::string> VisibleWords(std::string_view html) {
  auto tree = ParseHtml(html);
  TidyHtmlTree(tree.get());
  std::vector<std::string> words;
  tree->PreOrder([&](const Node& n) {
    if (!n.is_text()) return;
    for (std::string& w : SplitWords(n.text())) {
      words.push_back(std::move(w));
    }
  });
  return words;
}

// Concatenation of every val attribute in the converted tree.
std::string AllVals(const Node& root) {
  std::string out;
  root.PreOrder([&](const Node& n) {
    if (!n.val().empty()) {
      out.append(n.val());
      out.push_back(' ');
    }
  });
  return out;
}

class PerDocumentProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(PerDocumentProperty, NoTextLoss) {
  Fixture& f = Shared();
  GeneratedResume r = GenerateResume(GetParam());
  auto doc = f.converter.Convert(r.html);
  const std::string vals = AllVals(*doc);
  for (const std::string& raw : VisibleWords(r.html)) {
    // Tokenization splits at ';:,' — compare delimiter-free fragments.
    for (const std::string& piece : SplitAny(raw, ";:,")) {
      EXPECT_TRUE(vals.find(piece) != std::string::npos)
          << "lost word '" << piece << "' in doc " << GetParam()
          << " (style " << r.style.id << ")";
    }
  }
}

TEST_P(PerDocumentProperty, OnlyConceptElementsSurvive) {
  Fixture& f = Shared();
  GeneratedResume r = GenerateResume(GetParam());
  auto doc = f.converter.Convert(r.html);
  doc->PreOrder([&](const Node& n) {
    if (!n.is_element() || &n == doc.get()) return;
    EXPECT_TRUE(f.concepts.Contains(n.name()))
        << n.name() << " in doc " << GetParam();
  });
}

TEST_P(PerDocumentProperty, ConversionDeterministic) {
  Fixture& f = Shared();
  GeneratedResume r = GenerateResume(GetParam());
  auto a = f.converter.Convert(r.html);
  auto b = f.converter.Convert(r.html);
  EXPECT_TRUE(*a == *b);
}

TEST_P(PerDocumentProperty, TreeEditAxioms) {
  Fixture& f = Shared();
  auto a = f.converter.Convert(GenerateResume(GetParam()).html);
  auto b = f.converter.Convert(GenerateResume(GetParam() + 1).html);
  EXPECT_DOUBLE_EQ(TreeEditDistance(*a, *a), 0.0);
  const double ab = TreeEditDistance(*a, *b);
  EXPECT_DOUBLE_EQ(ab, TreeEditDistance(*b, *a));
  // Count element nodes on each side.
  auto elements = [](const Node& n) {
    size_t count = 0;
    n.PreOrder([&](const Node& m) { count += m.is_element() ? 1 : 0; });
    return count;
  };
  const double size_a = static_cast<double>(elements(*a));
  const double size_b = static_cast<double>(elements(*b));
  EXPECT_GE(ab, std::abs(size_a - size_b) - 1e-9);
  EXPECT_LE(ab, size_a + size_b + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(CorpusSweep, PerDocumentProperty,
                         ::testing::Range<size_t>(0, 40));

class PerStyleProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(PerStyleProperty, EveryStyleConvertsAndKeepsText) {
  Fixture& f = Shared();
  CorpusOptions options;
  options.fixed_style = static_cast<int>(GetParam());
  for (size_t i = 0; i < 4; ++i) {
    GeneratedResume r = GenerateResume(i, options);
    auto doc = f.converter.Convert(r.html);
    EXPECT_EQ(doc->name(), "resume");
    EXPECT_GT(doc->SubtreeSize(), 5u) << "style " << GetParam();
    const std::string vals = AllVals(*doc);
    // Spot-check the person's last name survived.
    EXPECT_NE(vals.find(r.data.last_name), std::string::npos)
        << "style " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllStyles, PerStyleProperty,
                         ::testing::Range<size_t>(0, 12));

class ThresholdProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ThresholdProperty, SupportBoundsAndAntiMonotonicity) {
  Fixture& f = Shared();
  MiningOptions options;
  options.sup_threshold = GetParam().first;
  options.ratio_threshold = GetParam().second;
  options.constraints = &f.constraints;
  FrequentPathMiner miner(options);
  for (size_t i = 0; i < 40; ++i) {
    auto doc = f.converter.Convert(GenerateResume(i).html);
    miner.AddDocument(*doc);
  }
  MajoritySchema schema = miner.Discover();
  if (schema.empty()) return;

  // Walk: every node satisfies the thresholds; support never increases
  // from parent to child.
  std::function<void(const SchemaNode&, double)> walk =
      [&](const SchemaNode& node, double parent_support) {
        EXPECT_GT(node.support, 0.0);
        EXPECT_LE(node.support, 1.0);
        EXPECT_GE(node.support, options.sup_threshold - 1e-12);
        if (parent_support > 0.0) {
          EXPECT_LE(node.support, parent_support + 1e-12);
          EXPECT_GE(node.support_ratio, options.ratio_threshold - 1e-12);
          EXPECT_LE(node.support_ratio, 1.0 + 1e-12);
        }
        for (const SchemaNode& child : node.children) {
          walk(child, node.support);
        }
      };
  walk(schema.root(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdSweep, ThresholdProperty,
    ::testing::Values(std::make_pair(0.0, 0.0), std::make_pair(0.25, 0.2),
                      std::make_pair(0.5, 0.45), std::make_pair(0.75, 0.5),
                      std::make_pair(1.0, 1.0)));

TEST(SchemaMonotonicityTest, HigherSupportThresholdNeverGrowsSchema) {
  Fixture& f = Shared();
  FrequentPathMiner miner;
  for (size_t i = 0; i < 40; ++i) {
    auto doc = f.converter.Convert(GenerateResume(i).html);
    miner.AddDocument(*doc);
  }
  size_t previous = SIZE_MAX;
  for (double threshold : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    miner.mutable_options().sup_threshold = threshold;
    miner.mutable_options().ratio_threshold = 0.0;
    const size_t size = miner.Discover().NodeCount();
    EXPECT_LE(size, previous) << "at threshold " << threshold;
    previous = size;
  }
}

TEST_P(PerDocumentProperty, XmlRoundTripIsIdentity) {
  // Serialize the converted document and parse it back: the tree must
  // survive exactly (element names, attributes, text) — the repository
  // depends on this.
  Fixture& f = Shared();
  auto doc = f.converter.Convert(GenerateResume(GetParam()).html);
  const std::string xml = WriteXml(*doc);
  auto reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(**reparsed == *doc) << "doc " << GetParam();
}

class TagSoupProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TagSoupProperty, ParserNeverBreaksOnRandomMarkup) {
  // Random tag soup: the lenient parser must always return a consistent
  // tree (correct parent pointers, no crash), and the converter must
  // accept whatever comes out.
  Rng rng(GetParam());
  static const char* kPieces[] = {
      "<p>", "</p>", "<ul>", "<li>", "</ul>", "<b>", "</i>", "<table>",
      "<tr>", "<td>", "</table>", "<br>", "<hr>", "<h2>", "</h2>",
      "June 1996", "University", "B.S.", "text, more; stuff:",
      "&amp;", "&bogus;", "&#65;", "<", ">", "\"", "<!-- c -->",
      "<a href='x'>", "</a>", "<div", " class='y'>", "</div>",
      "<script>if(a<b)</script>", "<H1>", "</H1>", "<dl><dt>x<dd>y",
  };
  std::string soup;
  const size_t pieces = 5 + rng.NextBelow(60);
  for (size_t i = 0; i < pieces; ++i) {
    soup += kPieces[rng.NextBelow(std::size(kPieces))];
    soup += " ";
  }
  auto tree = ParseHtml(soup);
  ASSERT_NE(tree, nullptr);
  // Parent-pointer consistency across the whole tree.
  std::function<void(const Node&)> check = [&](const Node& node) {
    for (size_t i = 0; i < node.child_count(); ++i) {
      EXPECT_EQ(node.child(i)->parent(), &node);
      check(*node.child(i));
    }
  };
  check(*tree);
  // Conversion never fails either.
  Fixture& f = Shared();
  auto doc = f.converter.Convert(soup);
  EXPECT_EQ(doc->name(), "resume");
}

INSTANTIATE_TEST_SUITE_P(SoupSeeds, TagSoupProperty,
                         ::testing::Range<uint64_t>(1, 31));

TEST(MappedConformanceTest, EveryMappedDocumentValidates) {
  Fixture& f = Shared();
  FrequentPathMiner miner;
  miner.mutable_options().constraints = &f.constraints;
  std::vector<std::unique_ptr<Node>> docs;
  for (size_t i = 0; i < 40; ++i) {
    docs.push_back(f.converter.Convert(GenerateResume(i).html));
    miner.AddDocument(*docs.back());
  }
  MajoritySchema schema = miner.Discover();
  DtdBuildOptions dtd_options;
  dtd_options.mark_optional = true;
  Dtd dtd = BuildDtd(schema, dtd_options);
  for (size_t i = 0; i < docs.size(); ++i) {
    ConformResult mapped = ConformToSchema(*docs[i], schema, dtd);
    DtdValidationResult validation =
        ValidateAgainstDtd(*mapped.document, dtd);
    EXPECT_TRUE(validation.valid())
        << "doc " << i << ": "
        << (validation.violations.empty()
                ? ""
                : validation.violations[0].message);
  }
}

// ConformsToDtd stops at the first violation and builds no message; it
// must still answer exactly what the full report does, on converted
// documents (which mostly violate the DTD) and mapped ones (which mostly
// conform), against both DTD shapes.
TEST(ConformanceAgreementTest, ConformsEqualsValidateValid) {
  Fixture& f = Shared();
  for (const uint64_t seed : {uint64_t{20020226}, uint64_t{1}}) {
    CorpusOptions corpus;
    corpus.seed = seed;
    FrequentPathMiner miner;
    miner.mutable_options().constraints = &f.constraints;
    std::vector<std::unique_ptr<Node>> docs;
    for (size_t i = 0; i < 60; ++i) {
      docs.push_back(f.converter.Convert(GenerateResume(i, corpus).html));
      miner.AddDocument(*docs.back());
    }
    const MajoritySchema schema = miner.Discover();
    for (const bool mark_optional : {false, true}) {
      DtdBuildOptions dtd_options;
      dtd_options.mark_optional = mark_optional;
      const Dtd dtd = BuildDtd(schema, dtd_options);
      size_t conforming[2] = {0, 0};
      for (size_t i = 0; i < docs.size(); ++i) {
        const std::unique_ptr<Node> mapped =
            ConformToSchema(*docs[i], schema, dtd).document;
        const Node* pair[2] = {docs[i].get(), mapped.get()};
        for (int k = 0; k < 2; ++k) {
          const bool valid = ValidateAgainstDtd(*pair[k], dtd).valid();
          EXPECT_EQ(ConformsToDtd(*pair[k], dtd), valid)
              << "seed " << seed << " doc " << i
              << (k == 0 ? " converted" : " mapped");
          conforming[k] += valid ? 1 : 0;
        }
      }
      // Both answers occur.
      EXPECT_LT(conforming[0], docs.size());
      EXPECT_GT(conforming[1], 0u);
    }
  }
}

}  // namespace
}  // namespace webre
