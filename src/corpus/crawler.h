#ifndef WEBRE_CORPUS_CRAWLER_H_
#define WEBRE_CORPUS_CRAWLER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "concepts/concept.h"
#include "restructure/text_rules.h"
#include "util/rng.h"

namespace webre {

/// Options for the simulated topic-specific crawler.
struct CrawlerOptions {
  /// Minimum topic score for a page to be kept. The score is the
  /// fraction of text tokens containing a concept-instance hit, plus a
  /// bonus per distinct *title* concept found (section headings are the
  /// strongest signal that a page "looks like a resume").
  double score_threshold = 0.25;
  /// Bonus per distinct title concept present.
  double title_bonus = 0.08;
  /// Title concept names to award the bonus for.
  std::vector<std::string> title_concepts;
};

/// Scoring/filter stage of a topic-specific crawler (§1: documents
/// "gathered by a topic specific Web crawler", [20]). The fetch/politeness
/// machinery of a real crawler is out of scope — what the paper's
/// pipeline depends on is the *selection behaviour*: a stream of mixed
/// pages goes in, topic-specific pages come out.
class TopicCrawler {
 public:
  /// `concepts` must outlive the crawler.
  TopicCrawler(const ConceptSet* concepts, CrawlerOptions options = {});

  /// Topic score of a raw HTML page in [0, ~1.5].
  double ScorePage(std::string_view html) const;

  /// True iff the page clears the threshold.
  bool Accept(std::string_view html) const;

  /// Filters a stream of pages, returning the accepted ones.
  std::vector<std::string> Crawl(const std::vector<std::string>& pages) const;

  /// Result of a link-following crawl.
  struct GraphCrawl {
    /// Accepted (topic) page URLs, in visit order.
    std::vector<std::string> accepted_urls;
    /// Pages fetched during the crawl.
    size_t pages_visited = 0;
  };

  /// Breadth-first crawl over a linked site (§5's "linkage structures
  /// among HTML documents"): starting from `start_url`, follows every
  /// `<a href>` found (the frontier is not topic-filtered — hubs and
  /// blogs lead to resumes), fetches each URL once, and accepts pages
  /// clearing the topic threshold. URLs absent from `web` are dead
  /// links and are skipped.
  GraphCrawl CrawlGraph(const std::map<std::string, std::string>& web,
                        const std::string& start_url) const;

 private:
  const ConceptSet* concepts_;
  CrawlerOptions options_;
  TextSplitter splitter_{TokenizeOptions{}.delimiters};
};

/// Generates an off-topic page (article/blog-style prose) for crawler
/// stream mixing. Contains at most incidental concept hits.
std::string GenerateDistractorPage(Rng& rng);

}  // namespace webre

#endif  // WEBRE_CORPUS_CRAWLER_H_
