// Query-serving bench: before/after arms over a generated XML corpus.
//
// The "after" arm is the current XmlRepository (sharded storage,
// NameId-keyed structural summary with per-path value columns, one
// column-seeded query executor over frozen FlatDoc blocks). The
// "before" arm replicates the seed serving layer inside this
// binary — a flat document vector, a joined-string path index used
// only for whole-prefix candidate pruning, and per-document tree
// evaluation with the original quadratic frontier dedup — so all arms
// run in one process over identical corpora.
//
// Three workloads are timed per arm:
//   simple    — exact root-to-leaf paths (the summary answers them with
//               zero tree walks);
//   mixed     — descendant steps, wildcards, final and intermediate
//               [val~...] predicates (every query shape);
//   predicate — predicate-heavy, low-selectivity needles (one- and
//               two-byte needles over //* and named paths), the
//               worst case for per-occurrence matching and the best
//               case for the SIMD column sweep.
//
// Before timing, the predicate workloads are re-evaluated once at every
// SIMD level the machine supports (scalar/SSE2/AVX2) and the match
// totals must agree byte for byte — a kernel divergence aborts the run.
//
// Prints one JSON object (corpus, both arms, derived speedups) to
// stdout; the checked-in BENCH_query.json is a captured full run plus
// date/build/method keys. ci/bench_smoke.sh runs a tiny corpus through
// this binary and validates both the live output and the artifact.
//
// Every workload runs at least --reps timed passes and keeps repeating
// until it has run for kMinWorkloadSeconds, so the fast after-arm
// workloads (a few ms per pass) are timed over a window long enough to
// read steadily on a shared host; `matches` counts one pass.
//
// Usage: bench_query [--docs=N] [--shards=N] [--reps=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "repository/query.h"
#include "repository/repository.h"
#include "schema/label_path.h"
#include "schema/path_extractor.h"
#include "util/rng.h"
#include "util/simd_scan.h"
#include "util/strings.h"
#include "xml/node.h"

namespace {

struct Flags {
  size_t docs = 4000;
  size_t shards = 4;
  size_t reps = 30;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--docs=", 0) == 0) {
      flags.docs = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--reps=", 0) == 0) {
      flags.reps = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return flags;
}

// ---------------------------------------------------------------------
// Deterministic resume-shaped corpus (plain Rng; no pipeline involved —
// this bench measures serving, not conversion).

const char* const kCities[] = {"Austin", "Boston", "Chicago", "Denver",
                               "Seattle", "Portland", "Atlanta"};
const char* const kCompanies[] = {"Initech", "Globex", "Umbrella",
                                  "Hooli", "Vandelay", "Stark"};
const char* const kTitles[] = {"software engineer", "data analyst",
                               "project manager", "web developer"};
const char* const kSchools[] = {"State University", "Tech Institute",
                                "Community College", "City University"};
const char* const kDegrees[] = {"BS", "MS", "BA", "PhD"};
const char* const kMajors[] = {"computer science", "mathematics",
                               "physics", "economics"};
const char* const kLanguages[] = {"Java", "C++", "Python", "SQL",
                                  "Haskell", "Go", "Perl"};
const char* const kCourses[] = {"algorithms", "databases", "compilers",
                                "networks", "statistics"};

template <size_t N>
const char* Pick(webre::Rng& rng, const char* const (&table)[N]) {
  return table[rng.NextBelow(N)];
}

std::string Year(webre::Rng& rng) {
  return std::to_string(1985 + rng.NextBelow(18));
}

std::unique_ptr<webre::Node> MakeDoc(size_t index) {
  webre::Rng rng(0x9E3779B9u + index);
  std::unique_ptr<webre::Node> root = webre::Node::MakeElement("resume");

  webre::Node* contact = root->AddElement("CONTACT");
  webre::Node* location = contact->AddElement("LOCATION");
  location->set_val(Pick(rng, kCities));
  location->AddElement("PHONE")->set_val(
      "555-" + std::to_string(1000 + rng.NextBelow(9000)));
  if (rng.NextBool(0.7)) {
    location->AddElement("EMAIL")->set_val(
        "person" + std::to_string(index) + "@example.com");
  }
  root->AddElement("OBJECTIVE")->set_val(
      std::string("seeking a position as ") + Pick(rng, kTitles));

  if (rng.NextBool(0.8)) {
    webre::Node* experience = root->AddElement("EXPERIENCE");
    const size_t jobs = 1 + rng.NextBelow(3);
    for (size_t j = 0; j < jobs; ++j) {
      webre::Node* job = experience->AddElement("JOBTITLE");
      job->set_val(Pick(rng, kTitles));
      job->AddElement("COMPANY")->set_val(Pick(rng, kCompanies));
      job->AddElement("LOCATION")->set_val(Pick(rng, kCities));
      job->AddElement("DATE")->set_val(Year(rng));
    }
  }

  webre::Node* education = root->AddElement("EDUCATION");
  const size_t degrees = 1 + rng.NextBelow(2);
  for (size_t d = 0; d < degrees; ++d) {
    webre::Node* date = education->AddElement("DATE");
    date->set_val(Year(rng));
    date->AddElement("INSTITUTION")->set_val(Pick(rng, kSchools));
    date->AddElement("DEGREE")->set_val(Pick(rng, kDegrees));
    date->AddElement("MAJOR")->set_val(Pick(rng, kMajors));
    if (rng.NextBool(0.5)) {
      date->AddElement("GPA")->set_val(
          "3." + std::to_string(rng.NextBelow(10)));
    }
  }

  webre::Node* skills = root->AddElement("SKILLS");
  const size_t languages = 1 + rng.NextBelow(5);
  for (size_t l = 0; l < languages; ++l) {
    skills->AddElement("LANGUAGE")->set_val(Pick(rng, kLanguages));
  }

  webre::Node* courses = root->AddElement("COURSES");
  const size_t taken = 1 + rng.NextBelow(4);
  for (size_t c = 0; c < taken; ++c) {
    courses->AddElement("COURSE")->set_val(Pick(rng, kCourses));
  }
  return root;
}

// ---------------------------------------------------------------------
// "before" arm: the seed serving layer, replicated verbatim (flat
// storage, joined-string path index, quadratic-dedup tree evaluation).

bool SeedStepMatches(const webre::QueryStep& step, const webre::Node& node) {
  if (!node.is_element()) return false;
  if (step.name != "*" && node.name() != step.name) return false;
  if (!step.val_contains.empty() &&
      !webre::ContainsIgnoreCase(node.val(), step.val_contains)) {
    return false;
  }
  return true;
}

void SeedCollectDescendants(const webre::Node& from,
                            const webre::QueryStep& step,
                            std::vector<const webre::Node*>& out) {
  for (size_t i = 0; i < from.child_count(); ++i) {
    const webre::Node* child = from.child(i);
    if (!child->is_element()) continue;
    if (SeedStepMatches(step, *child)) out.push_back(child);
    SeedCollectDescendants(*child, step, out);
  }
}

std::vector<const webre::Node*> SeedEvaluate(const webre::PathQuery& query,
                                             const webre::Node& root) {
  const std::vector<webre::QueryStep>& steps = query.steps();
  std::vector<const webre::Node*> frontier;
  const webre::QueryStep& first = steps[0];
  if (first.descendant) {
    if (SeedStepMatches(first, root)) frontier.push_back(&root);
    SeedCollectDescendants(root, first, frontier);
  } else if (SeedStepMatches(first, root)) {
    frontier.push_back(&root);
  }
  for (size_t s = 1; s < steps.size(); ++s) {
    const webre::QueryStep& step = steps[s];
    std::vector<const webre::Node*> next;
    for (const webre::Node* node : frontier) {
      if (step.descendant) {
        SeedCollectDescendants(*node, step, next);
      } else {
        for (size_t i = 0; i < node->child_count(); ++i) {
          const webre::Node* child = node->child(i);
          if (child->is_element() && SeedStepMatches(step, *child)) {
            next.push_back(child);
          }
        }
      }
    }
    // The seed's linear-scan dedup — O(n^2) in the frontier size.
    std::vector<const webre::Node*> deduped;
    for (const webre::Node* node : next) {
      if (std::find(deduped.begin(), deduped.end(), node) ==
          deduped.end()) {
        deduped.push_back(node);
      }
    }
    frontier = std::move(deduped);
    if (frontier.empty()) break;
  }
  return frontier;
}

class BaselineRepo {
 public:
  void Add(std::unique_ptr<webre::Node> document) {
    const webre::DocId id = docs_.size();
    webre::DocumentPaths paths = webre::ExtractPaths(*document);
    for (size_t i = 0; i < paths.size(); ++i) {
      index_[webre::JoinLabelPath(webre::LabelPathAt(paths, i))].push_back(id);
    }
    docs_.push_back(std::move(document));
  }

  size_t size() const { return docs_.size(); }

  std::vector<std::pair<webre::DocId, const webre::Node*>> Query(
      const webre::PathQuery& query) const {
    webre::LabelPath prefix;
    for (const webre::QueryStep& step : query.steps()) {
      if (step.descendant || step.name == "*") break;
      prefix.push_back(step.name);
    }
    std::vector<webre::DocId> candidates;
    if (!prefix.empty()) {
      auto it = index_.find(webre::JoinLabelPath(prefix));
      if (it != index_.end()) candidates = it->second;
    } else {
      candidates.resize(docs_.size());
      for (webre::DocId id = 0; id < docs_.size(); ++id) candidates[id] = id;
    }
    std::vector<std::pair<webre::DocId, const webre::Node*>> matches;
    for (webre::DocId id : candidates) {
      for (const webre::Node* node : SeedEvaluate(query, *docs_[id])) {
        matches.emplace_back(id, node);
      }
    }
    return matches;
  }

 private:
  std::vector<std::unique_ptr<webre::Node>> docs_;
  std::unordered_map<std::string, std::vector<webre::DocId>> index_;
};

// ---------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shortest timed window per workload and arm.
constexpr double kMinWorkloadSeconds = 0.2;

struct WorkloadResult {
  double seconds = 0;
  size_t passes = 0;
  size_t queries = 0;
  /// Matches of one pass over the workload.
  size_t matches = 0;

  double qps() const { return seconds > 0 ? queries / seconds : 0; }
};

template <typename Repo>
WorkloadResult RunWorkload(const Repo& repo,
                           const std::vector<webre::PathQuery>& queries,
                           size_t reps) {
  // One untimed pass warms caches and counts the matches.
  WorkloadResult result;
  for (const webre::PathQuery& query : queries) {
    result.matches += repo.Query(query).size();
  }
  const double begin = Now();
  while (result.passes < reps || Now() - begin < kMinWorkloadSeconds) {
    for (const webre::PathQuery& query : queries) {
      (void)repo.Query(query);
      ++result.queries;
    }
    ++result.passes;
  }
  result.seconds = Now() - begin;
  return result;
}

std::vector<webre::PathQuery> ParseAll(
    const std::vector<std::string_view>& texts) {
  std::vector<webre::PathQuery> queries;
  for (std::string_view text : texts) {
    queries.push_back(webre::PathQuery::Parse(text).value());
  }
  return queries;
}

void PrintArm(const char* name, size_t docs, size_t shards,
              const WorkloadResult& simple, const WorkloadResult& mixed,
              const WorkloadResult& predicate, bool trailing_comma) {
  std::printf(
      "    \"%s\": {\n"
      "      \"arm\": \"%s\",\n"
      "      \"documents\": %zu,\n"
      "      \"shards\": %zu,\n"
      "      \"simple_seconds\": %.4f,\n"
      "      \"simple_passes\": %zu,\n"
      "      \"simple_qps\": %.1f,\n"
      "      \"mixed_seconds\": %.4f,\n"
      "      \"mixed_passes\": %zu,\n"
      "      \"mixed_qps\": %.1f,\n"
      "      \"predicate_seconds\": %.4f,\n"
      "      \"predicate_passes\": %zu,\n"
      "      \"predicate_qps\": %.1f,\n"
      "      \"matches\": %zu\n"
      "    }%s\n",
      name, name, docs, shards, simple.seconds, simple.passes, simple.qps(),
      mixed.seconds, mixed.passes, mixed.qps(), predicate.seconds,
      predicate.passes, predicate.qps(),
      simple.matches + mixed.matches + predicate.matches,
      trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  // Exact root-to-leaf paths: one summary path's occurrence run each.
  const std::vector<webre::PathQuery> simple = ParseAll({
      "/resume/EDUCATION/DATE",
      "/resume/SKILLS/LANGUAGE",
      "/resume/CONTACT/LOCATION/EMAIL",
      "/resume/EXPERIENCE/JOBTITLE/COMPANY",
  });
  // Descendants, wildcards, predicates: every query.plan.* shape
  // (summary, sweep, seeded) occurs.
  const std::vector<webre::PathQuery> mixed = ParseAll({
      "/resume/EDUCATION/DATE",
      "//DATE",
      "//LANGUAGE[val~\"java\"]",
      "/resume/EXPERIENCE//DATE",
      "//LOCATION/*",
      "//*[val~\"1996\"]",
      "/resume/EXPERIENCE/JOBTITLE[val~\"engineer\"]/COMPANY",
  });
  // Predicate-heavy, low-selectivity needles: one- and two-byte needles
  // reject almost no candidate by length and match large fractions of
  // the corpus, so nearly all evaluation time is substring matching —
  // the workload the SIMD column sweep exists for.
  const std::vector<webre::PathQuery> predicate = ParseAll({
      "//*[val~\"e\"]",
      "//*[val~\"a\"]",
      "//*[val~\"s\"]",
      "//LANGUAGE[val~\"a\"]",
      "//JOBTITLE[val~\"er\"]",
      "//*[val~\"19\"]",
  });

  BaselineRepo before;
  webre::RepositoryOptions options;
  options.num_shards = flags.shards;
  webre::XmlRepository after(options);
  for (size_t i = 0; i < flags.docs; ++i) {
    before.Add(MakeDoc(i));
    after.Add(MakeDoc(i)).value();
  }

  // Kernel cross-check before any timing: the predicate workloads must
  // produce identical match totals at every SIMD level this machine
  // supports. A divergence means a scanner kernel is wrong, and no
  // number from this run can be trusted.
  {
    const webre::SimdLevel saved = webre::ActiveSimdLevel();
    size_t reference = 0;
    for (int level = 0; level <= static_cast<int>(webre::DetectedSimdLevel());
         ++level) {
      webre::SetSimdLevelForTesting(static_cast<webre::SimdLevel>(level));
      size_t total = 0;
      for (const webre::PathQuery& query : mixed) {
        total += after.Query(query).size();
      }
      for (const webre::PathQuery& query : predicate) {
        total += after.Query(query).size();
      }
      if (level == 0) {
        reference = total;
      } else if (total != reference) {
        std::fprintf(stderr,
                     "FAIL: SIMD level %s disagrees with scalar "
                     "(%zu vs %zu matches)\n",
                     webre::SimdLevelName(
                         static_cast<webre::SimdLevel>(level)),
                     total, reference);
        return 1;
      }
    }
    webre::SetSimdLevelForTesting(saved);
  }

  const WorkloadResult before_simple =
      RunWorkload(before, simple, flags.reps);
  const WorkloadResult before_mixed = RunWorkload(before, mixed, flags.reps);
  const WorkloadResult before_predicate =
      RunWorkload(before, predicate, flags.reps);
  const WorkloadResult after_simple = RunWorkload(after, simple, flags.reps);
  const WorkloadResult after_mixed = RunWorkload(after, mixed, flags.reps);
  const WorkloadResult after_predicate =
      RunWorkload(after, predicate, flags.reps);

  // Both arms see identical corpora, so their match totals must agree;
  // a mismatch means one serving layer is wrong, and no timing from
  // this run can be trusted.
  if (before_simple.matches != after_simple.matches ||
      before_mixed.matches != after_mixed.matches ||
      before_predicate.matches != after_predicate.matches) {
    std::fprintf(stderr,
                 "FAIL: arms disagree (simple %zu vs %zu, mixed %zu vs "
                 "%zu, predicate %zu vs %zu)\n",
                 before_simple.matches, after_simple.matches,
                 before_mixed.matches, after_mixed.matches,
                 before_predicate.matches, after_predicate.matches);
    return 1;
  }

  const webre::RepositoryStats stats = after.Stats();
  std::printf(
      "{\n"
      "  \"bench\": \"bench_query\",\n"
      "  \"corpus\": {\n"
      "    \"generator\": \"bench_query MakeDoc (Rng-driven resumes)\",\n"
      "    \"documents\": %zu,\n"
      "    \"elements\": %zu,\n"
      "    \"distinct_paths\": %zu,\n"
      "    \"reps\": %zu,\n"
      "    \"min_workload_seconds\": %.1f\n"
      "  },\n"
      "  \"arms\": {\n",
      flags.docs, stats.elements, stats.distinct_paths, flags.reps,
      kMinWorkloadSeconds);
  PrintArm("before", flags.docs, 1, before_simple, before_mixed,
           before_predicate, true);
  PrintArm("after", flags.docs, after.num_shards(), after_simple,
           after_mixed, after_predicate, false);
  std::printf(
      "  },\n"
      "  \"derived\": {\n"
      "    \"simple_speedup\": %.3f,\n"
      "    \"mixed_speedup\": %.3f,\n"
      "    \"predicate_speedup\": %.3f\n"
      "  }\n"
      "}\n",
      after_simple.qps() > 0 ? after_simple.qps() / before_simple.qps() : 0,
      after_mixed.qps() > 0 ? after_mixed.qps() / before_mixed.qps() : 0,
      after_predicate.qps() > 0
          ? after_predicate.qps() / before_predicate.qps()
          : 0);
  return 0;
}
