#include "corpus.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "corpus/resume_generator.h"
#include "corpus/vocab.h"
#include "util/rng.h"

namespace perfbench {

Corpus MakeCorpus(uint64_t seed, size_t first, size_t count, bool keep_truth,
                  webre::ThreadPool& pool) {
  Corpus corpus;
  corpus.html.resize(count);
  if (keep_truth) corpus.truth.resize(count);
  std::vector<int> style(count, 0);
  webre::CorpusOptions options;
  options.seed = seed;
  webre::ParallelFor(pool, count, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      webre::GeneratedResume page = webre::GenerateResume(first + i, options);
      corpus.html[i] = std::move(page.html);
      if (keep_truth) corpus.truth[i] = std::move(page.truth);
      style[i] = page.style.id;
    }
  });
  for (const std::string& page : corpus.html) corpus.html_bytes += page.size();
  corpus.styles = std::set<int>(style.begin(), style.end()).size();
  return corpus;
}

void CountPaths(const webre::Node& root, PathCounts& counts) {
  std::set<std::string> seen;
  std::vector<std::pair<const webre::Node*, std::string>> stack = {
      {&root, "/" + std::string(root.name())}};
  while (!stack.empty()) {
    auto [node, path] = std::move(stack.back());
    stack.pop_back();
    seen.insert(path);
    for (size_t i = 0; i < node->child_count(); ++i) {
      const webre::Node* child = node->child(i);
      if (child->is_element()) stack.emplace_back(child, path + "/" + std::string(child->name()));
    }
  }
  for (const std::string& path : seen) ++counts[path];
}

namespace {

// Lower-case words of at least four letters from the generator's lists,
// plus the three-letter prefix of each longer word: substrings that occur
// in element values at a spread of frequencies, from one page to most.
std::vector<std::string> Needles() {
  const std::vector<std::string>* lists[] = {
      &webre::SkillsPool(),      &webre::Companies(),
      &webre::Majors(),          &webre::Degrees(),
      &webre::JobTitles(),       &webre::CityStateLines(),
      &webre::SafeInstitutions(), &webre::CollidingInstitutions(),
      &webre::Months(),          &webre::CoursesPool(),
  };
  std::set<std::string> words;
  for (const auto* list : lists) {
    for (const std::string& phrase : *list) {
      std::string word;
      for (char c : phrase + " ") {
        if (std::isalpha(static_cast<unsigned char>(c))) {
          word += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        } else {
          if (word.size() >= 4) words.insert(word);
          if (word.size() >= 5) words.insert(word.substr(0, 3));
          word.clear();
        }
      }
    }
  }
  for (int year = 1985; year <= 2002; ++year) words.insert(std::to_string(year));
  return {words.begin(), words.end()};
}

std::string Leaf(const std::string& path) {
  return path.substr(path.rfind('/') + 1);
}

// `path` with each step below the root independently turned into a
// descendant step or a wildcard: many distinct structural queries, each
// answered from the summary with a full page of matches. A trailing
// wildcard keeps the child axis (`//*` at the end would match nearly
// every element).
std::string StructuralVariant(const std::string& path, webre::Rng& rng) {
  std::vector<std::string> steps;
  for (size_t begin = 1, end; begin < path.size(); begin = end + 1) {
    end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    steps.push_back(path.substr(begin, end - begin));
  }
  std::string q = "/" + steps[0];
  for (size_t i = 1; i < steps.size(); ++i) {
    const bool wildcard = rng.NextBool(0.3);
    const bool descendant = rng.NextBool(0.3) && !(wildcard && i + 1 == steps.size());
    q += (descendant ? "//" : "/") + (wildcard ? std::string("*") : steps[i]);
  }
  return q;
}

}  // namespace

std::vector<std::string> MakeQueries(const PathCounts& paths, size_t count,
                                     uint64_t seed) {
  // Paths found in at least two documents, below the root, as strings;
  // and those of depth >= 3 (with a section step between root and leaf).
  std::vector<std::string> all;
  std::vector<std::string> deep;
  for (const auto& [path, docs] : paths) {
    if (docs < 2 || std::count(path.begin(), path.end(), '/') < 2) continue;
    all.push_back(path);
    if (std::count(path.begin(), path.end(), '/') >= 3) deep.push_back(path);
  }
  if (all.empty()) return {"//*"};
  if (deep.empty()) deep = all;
  const std::vector<std::string> needles = Needles();

  webre::Rng rng(seed ^ 0x5eed0f0e2a11ULL);
  const auto pred = [&] {
    return "[val~\"" + rng.Choose(needles) + "\"]";
  };
  std::set<std::string> seen;
  std::vector<std::string> queries;
  for (size_t attempt = 0; queries.size() < count && attempt < 50 * count;
       ++attempt) {
    const std::string& path = rng.Choose(all);
    const std::string& deep_path = rng.Choose(deep);
    // Section step and the rest of a deep path: /resume/SECTION/REST...
    const size_t section_end = deep_path.find('/', deep_path.find('/', 1) + 1);
    const std::string section = deep_path.substr(0, section_end);
    const std::string rest = deep_path.substr(section_end);
    std::string q;
    const double kind = rng.NextDouble();
    if (kind < 0.35) {
      q = StructuralVariant(deep_path, rng);           // summary
    } else if (kind < 0.55) {
      q = path + pred();                                // summary / sweep
    } else if (kind < 0.68) {
      q = "//" + Leaf(path) + pred();                   // summary / sweep
    } else if (kind < 0.72) {
      q = "//*" + pred();                               // sweep
    } else if (kind < 0.87) {
      q = section + pred() + rest;                      // seeded
    } else {
      q = "//" + Leaf(section) + pred() + rest;         // scan
    }
    if (seen.insert(q).second) queries.push_back(std::move(q));
  }
  rng.Shuffle(queries);
  return queries;
}

}  // namespace perfbench
