#include "restructure/recognizer.h"

#include "classify/features.h"

namespace webre {

std::vector<InstanceMatch> SynonymRecognizer::Recognize(
    std::string_view token_text) const {
  return concepts_->MatchAll(token_text);
}

void SynonymRecognizer::RecognizeInto(std::string_view token_text,
                                      MatchScratch& scratch,
                                      std::vector<InstanceMatch>& out) const {
  concepts_->MatchAllInto(token_text, scratch, out);
}

BayesRecognizer::BayesRecognizer(const BayesClassifier* classifier,
                                 const ConceptSet* concepts,
                                 double min_margin)
    : classifier_(classifier), concepts_(concepts),
      min_margin_(min_margin) {}

std::vector<InstanceMatch> BayesRecognizer::Recognize(
    std::string_view token_text) const {
  std::vector<InstanceMatch> matches;
  std::vector<std::string> features = ExtractTokenFeatures(token_text);
  if (features.empty()) return matches;
  std::string label =
      classifier_->ClassifyWithThreshold(features, min_margin_, "");
  if (label.empty()) return matches;
  const size_t index = concepts_->IndexOf(label);
  if (index == ConceptSet::kNpos) return matches;  // outside Con: unknown
  matches.push_back(InstanceMatch{index, concepts_->at(index).name, 0,
                                  token_text.size(), /*via_bayes=*/true,
                                  concepts_->name_id(index)});
  return matches;
}

HybridRecognizer::HybridRecognizer(const ConceptSet* concepts,
                                   const BayesClassifier* classifier,
                                   double min_margin)
    : synonym_(concepts), bayes_(classifier, concepts, min_margin) {}

std::vector<InstanceMatch> HybridRecognizer::Recognize(
    std::string_view token_text) const {
  std::vector<InstanceMatch> matches = synonym_.Recognize(token_text);
  if (!matches.empty()) return matches;
  return bayes_.Recognize(token_text);
}

}  // namespace webre
