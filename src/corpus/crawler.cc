#include "corpus/crawler.h"

#include <deque>
#include <set>

#include "html/parser.h"
#include "xml/node.h"

namespace webre {

TopicCrawler::TopicCrawler(const ConceptSet* concepts, CrawlerOptions options)
    : concepts_(concepts), options_(std::move(options)) {}

double TopicCrawler::ScorePage(std::string_view html) const {
  std::unique_ptr<Node> tree = ParseHtml(html);

  // Score the text tokens exactly as document conversion splits them.
  size_t tokens = 0;
  size_t hits = 0;
  std::set<std::string_view> title_concepts_seen;
  tree->PreOrder([&](const Node& node) {
    if (!node.is_text()) return;
    splitter_.ForEachToken(node.text(), [&](std::string_view token) {
      ++tokens;
      InstanceMatch match = concepts_->MatchFirst(token);
      if (match.length == 0) return;
      ++hits;
      for (const std::string& title : options_.title_concepts) {
        if (match.concept_name == title) {
          title_concepts_seen.insert(match.concept_name);
        }
      }
    });
  });

  if (tokens == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(tokens) +
         options_.title_bonus * static_cast<double>(title_concepts_seen.size());
}

bool TopicCrawler::Accept(std::string_view html) const {
  return ScorePage(html) >= options_.score_threshold;
}

std::vector<std::string> TopicCrawler::Crawl(
    const std::vector<std::string>& pages) const {
  std::vector<std::string> accepted;
  for (const std::string& page : pages) {
    if (Accept(page)) accepted.push_back(page);
  }
  return accepted;
}

namespace {

// href targets of <a> elements, in document order.
std::vector<std::string> ExtractLinks(std::string_view html) {
  HtmlParseOptions options;
  options.keep_attributes = true;
  std::unique_ptr<Node> tree = ParseHtml(html, options);
  std::vector<std::string> links;
  tree->PreOrder([&](const Node& node) {
    if (node.is_element() && node.name() == "a" && node.has_attr("href")) {
      links.emplace_back(node.attr("href"));
    }
  });
  return links;
}

}  // namespace

TopicCrawler::GraphCrawl TopicCrawler::CrawlGraph(
    const std::map<std::string, std::string>& web,
    const std::string& start_url) const {
  GraphCrawl result;
  std::set<std::string> enqueued = {start_url};
  std::deque<std::string> frontier = {start_url};
  while (!frontier.empty()) {
    const std::string url = std::move(frontier.front());
    frontier.pop_front();
    auto it = web.find(url);
    if (it == web.end()) continue;  // dead link
    ++result.pages_visited;
    const std::string& html = it->second;
    if (Accept(html)) result.accepted_urls.push_back(url);
    for (std::string& link : ExtractLinks(html)) {
      if (enqueued.insert(link).second) frontier.push_back(std::move(link));
    }
  }
  return result;
}

namespace {

const std::vector<std::string>& DistractorTopics() {
  static const auto& v = *new std::vector<std::string>{
      "Growing tomatoes in raised beds", "A walking tour of old harbours",
      "Notes on sourdough starters",     "Restoring antique clocks",
      "Birdwatching in wetland parks",   "A beginner guide to watercolour"};
  return v;
}

const std::vector<std::string>& DistractorSentences() {
  static const auto& v = *new std::vector<std::string>{
      "The light in the late afternoon settles over the valley like a veil.",
      "Start with a small patch and expand once the soil improves.",
      "Many visitors linger at the lighthouse before walking back along "
      "the quay.",
      "Keep the mixture warm and it will double within a day or so.",
      "The gears must be cleaned gently with a soft brush.",
      "Herons gather near the reed beds shortly after dawn.",
      "Mix the pigment sparingly until the wash looks almost too pale.",
      "A little patience at this stage saves a great deal of rework.",
      "The trail is muddy after rain and sturdy boots are advised."};
  return v;
}

}  // namespace

std::string GenerateDistractorPage(Rng& rng) {
  const std::string& topic = rng.Choose(DistractorTopics());
  std::string html = "<html><head><title>" + topic +
                     "</title></head><body><h1>" + topic + "</h1>";
  const size_t paragraphs = 2 + rng.NextBelow(3);
  for (size_t p = 0; p < paragraphs; ++p) {
    html += "<p>";
    const size_t sentences = 2 + rng.NextBelow(4);
    for (size_t s = 0; s < sentences; ++s) {
      if (s > 0) html += " ";
      html += rng.Choose(DistractorSentences());
    }
    html += "</p>";
  }
  html += "</body></html>";
  return html;
}

}  // namespace webre
