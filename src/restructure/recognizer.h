#ifndef WEBRE_RESTRUCTURE_RECOGNIZER_H_
#define WEBRE_RESTRUCTURE_RECOGNIZER_H_

#include <string_view>
#include <vector>

#include "classify/bayes.h"
#include "concepts/concept.h"

namespace webre {

/// Strategy interface for the concept instance rule (§2.3.1): given a
/// token's text, locate concept instances in it. The paper implements two
/// recognizers — synonym matching and a multinomial Bayes classifier —
/// and this interface lets the converter swap them (or combine them).
class ConceptRecognizer {
 public:
  virtual ~ConceptRecognizer() = default;

  /// Returns non-overlapping matches sorted by position; empty when the
  /// token cannot be associated with any concept.
  virtual std::vector<InstanceMatch> Recognize(
      std::string_view token_text) const = 0;

  /// Recognize into caller-owned buffers: `out` is overwritten with the
  /// matches Recognize returns. The text pass calls this once per token
  /// with buffers reused across a document; the default forwards to
  /// Recognize.
  virtual void RecognizeInto(std::string_view token_text,
                             MatchScratch& scratch,
                             std::vector<InstanceMatch>& out) const {
    (void)scratch;
    out = Recognize(token_text);
  }
};

/// Recognizer (1) of §2.3.1: "it is simply checked whether for a concept
/// instance a match (synonym) can be found in the token."
class SynonymRecognizer : public ConceptRecognizer {
 public:
  /// `concepts` must outlive this recognizer.
  explicit SynonymRecognizer(const ConceptSet* concepts)
      : concepts_(concepts) {}

  std::vector<InstanceMatch> Recognize(
      std::string_view token_text) const override;
  void RecognizeInto(std::string_view token_text, MatchScratch& scratch,
                     std::vector<InstanceMatch>& out) const override;

 private:
  const ConceptSet* concepts_;
};

/// Recognizer (2) of §2.3.1: a multinomial Bayes classifier trained on
/// user-labeled tokens "classifies each token as a concept instance with
/// the highest probability", or as unknown below the confidence margin.
/// A Bayes match always covers the whole token.
class BayesRecognizer : public ConceptRecognizer {
 public:
  /// `classifier` and `concepts` must outlive this recognizer.
  /// `min_margin` is the log-odds margin under which a token is left
  /// unknown (0 accepts every prediction).
  BayesRecognizer(const BayesClassifier* classifier,
                  const ConceptSet* concepts, double min_margin = 0.5);

  std::vector<InstanceMatch> Recognize(
      std::string_view token_text) const override;

 private:
  const BayesClassifier* classifier_;
  const ConceptSet* concepts_;
  double min_margin_;
};

/// Synonym matching first; Bayes classification as fallback for tokens
/// without any synonym hit. This mirrors the paper's remedy for a low
/// identified-token ratio: add instances *or* more training data.
class HybridRecognizer : public ConceptRecognizer {
 public:
  HybridRecognizer(const ConceptSet* concepts,
                   const BayesClassifier* classifier, double min_margin = 0.5);

  std::vector<InstanceMatch> Recognize(
      std::string_view token_text) const override;

 private:
  SynonymRecognizer synonym_;
  BayesRecognizer bayes_;
};

}  // namespace webre

#endif  // WEBRE_RESTRUCTURE_RECOGNIZER_H_
