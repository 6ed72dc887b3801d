#ifndef WEBRE_SCHEMA_FREQUENT_PATHS_H_
#define WEBRE_SCHEMA_FREQUENT_PATHS_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concepts/constraints.h"
#include "schema/majority_schema.h"
#include "schema/path_extractor.h"
#include "xml/node.h"

namespace webre {

/// Thresholds and pruning knobs for frequent-path discovery (§3.2).
struct MiningOptions {
  /// support(p) >= supThreshold for p to be frequent.
  double sup_threshold = 0.45;
  /// supportRatio(p) >= ratioThreshold for p to be frequent.
  double ratio_threshold = 0.4;
  /// repThreshold for the repetitive-elements rule; the paper found 3
  /// useful ("a fact that also has been observed in [Xtract]").
  size_t rep_threshold = 3;
  /// Optional concept constraints, applied at insertion only: a path
  /// violating them is pruned before it touches the trie, shrinking the
  /// explored search space (§4.2), and Discover never re-checks them —
  /// so set them before the first AddDocument. Not owned; may be null.
  const ConstraintSet* constraints = nullptr;
};

/// Counters reported by the miner for the §4.2 search-space experiment.
struct MiningStats {
  /// Label-path insertions offered (per document, deduplicated).
  size_t paths_offered = 0;
  /// Paths rejected by the constraint set before touching the trie.
  size_t paths_pruned_by_constraints = 0;
  /// Trie nodes materialized — "the actual number of nodes explored"
  /// since zero-support label paths are never created.
  size_t trie_nodes = 0;
  /// Nodes of the discovered schema (frequent paths).
  size_t frequent_paths = 0;
};

/// Discovers a majority schema from a stream of XML documents.
///
/// Usage:
///   FrequentPathMiner miner(options);
///   for (const auto& doc : docs) miner.AddDocument(*doc);
///   MajoritySchema schema = miner.Discover();
///
/// AddDocument runs one tree walk (ExtractPaths) and one trie update per
/// distinct path — linear in document size, which is what makes the
/// paper's Figure 5 scalability linear in nodes/concept nodes.
class FrequentPathMiner {
 public:
  explicit FrequentPathMiner(MiningOptions options = {});
  ~FrequentPathMiner();

  FrequentPathMiner(const FrequentPathMiner&) = delete;
  FrequentPathMiner& operator=(const FrequentPathMiner&) = delete;

  /// Adds one document's paths to the search space S.
  void AddDocument(const Node& root);
  /// Adds pre-extracted paths (for callers that already walked the
  /// tree). The trie is updated and the constraint set consulted by
  /// NameId, one map probe per path, with no string built or hashed.
  void AddDocumentPaths(const DocumentPaths& paths);

  /// Folds another miner's search space into this one. All per-path
  /// statistics are order-independent sums, so merging the batch
  /// pipeline's per-chunk miners yields exactly the trie a single miner
  /// fed with every document would hold, provided all were built with
  /// the same rep_threshold and constraints (both act at insertion).
  /// `other` is left untouched.
  void MergeFrom(const FrequentPathMiner& other);

  /// Number of documents added.
  size_t document_count() const { return document_count_; }

  /// Counters accumulated so far (trie_nodes/frequent_paths filled by
  /// Discover).
  const MiningStats& stats() const { return stats_; }

  /// Computes the majority schema under the current thresholds. May be
  /// called repeatedly (e.g. with adjusted sup/ratio thresholds via
  /// mutable_options) without re-adding documents; rep_threshold and
  /// constraints act at insertion, so changing them later has no
  /// effect on documents already added.
  MajoritySchema Discover();

  MiningOptions& mutable_options() { return options_; }

  /// Trie nodes materialized so far (the §4.2 search-space measure,
  /// excluding the sentinel root). Maintained incrementally so callers
  /// do not need a Discover() pass to read it.
  size_t trie_node_count() const { return trie_node_count_; }

 private:
  struct TrieNode;

  void BuildSchemaNode(const TrieNode& trie, double parent_support,
                       SchemaNode& out) const;
  /// Constraint verdict for the leaf of path `pi`, whose parent path is
  /// known to be allowed.
  bool LeafAllowed(const DocumentPaths& paths, size_t pi);

  MiningOptions options_;
  std::unique_ptr<TrieNode> root_;
  size_t document_count_ = 0;
  size_t trie_node_count_ = 0;
  MiningStats stats_;
  // Per-document buffers reused by AddDocumentPaths.
  std::vector<TrieNode*> resolved_scratch_;
  std::vector<NameId> labels_scratch_;
};

/// Convenience baselines (§1, §3.1): the upper-bound Data Guide keeps
/// every path that occurs in at least one document; the lower-bound
/// schema keeps only paths occurring in all documents.
MajoritySchema DiscoverDataGuide(FrequentPathMiner& miner);
MajoritySchema DiscoverLowerBound(FrequentPathMiner& miner);

}  // namespace webre

#endif  // WEBRE_SCHEMA_FREQUENT_PATHS_H_
