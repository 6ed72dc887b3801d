#include "schema/frequent_paths.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "xml/name_table.h"

namespace webre {

/// The search-space trie is keyed on interned NameIds: child lookup is
/// an integer map probe, constraint checks compare NameIds, and merging
/// two tries never touches a string. Label strings are resolved from the
/// global NameTable only when a schema node is materialized.
struct FrequentPathMiner::TrieNode {
  NameId label = kInvalidNameId;  // kInvalidNameId marks the sentinel
  size_t doc_count = 0;
  size_t rep_doc_count = 0;
  double position_sum = 0.0;
  size_t position_count = 0;
  std::map<NameId, std::unique_ptr<TrieNode>> children;
};

namespace {

std::string_view LabelOf(NameId id) {
  return id == kInvalidNameId ? std::string_view()
                              : NameTable::Global().NameOf(id);
}

}  // namespace

FrequentPathMiner::FrequentPathMiner(MiningOptions options)
    : options_(options), root_(std::make_unique<TrieNode>()) {}

FrequentPathMiner::~FrequentPathMiner() = default;

void FrequentPathMiner::AddDocument(const Node& root) {
  AddDocumentPaths(ExtractPaths(root));
}

void FrequentPathMiner::AddDocumentPaths(const DocumentPaths& paths) {
  ++document_count_;
  // ExtractPaths fills the statistics vectors parallel to the paths;
  // hand-built DocumentPaths may omit them.
  const size_t n = paths.size();
  const bool have_mult = paths.max_multiplicity.size() == n;
  const bool have_pos =
      paths.position_sum.size() == n && paths.position_count.size() == n;
  const ConstraintSet* constraints = options_.constraints;

  // Parents precede children, so each path's trie node hangs off its
  // parent's already resolved one: an insertion is one map probe. Every
  // constraint rule is prefix-closed, so a path is allowed iff its
  // parent was and its leaf passes (ConstraintSet::LeafAllowed); a
  // pruned path leaves a null entry that prunes its descendants, and
  // materializes no trie node of its own.
  std::vector<TrieNode*>& resolved = resolved_scratch_;
  resolved.assign(n, nullptr);
  for (size_t pi = 0; pi < n; ++pi) {
    ++stats_.paths_offered;
    const uint32_t parent = paths.parent_index[pi];
    TrieNode* parent_node =
        parent == DocumentPaths::kNoParentPath ? root_.get() : resolved[parent];
    if (constraints != nullptr &&
        (parent_node == nullptr || !LeafAllowed(paths, pi))) {
      ++stats_.paths_pruned_by_constraints;
      continue;
    }
    const NameId leaf = paths.leaf_name[pi];
    std::unique_ptr<TrieNode>& slot = parent_node->children[leaf];
    if (slot == nullptr) {
      slot = std::make_unique<TrieNode>();
      slot->label = leaf;
      ++trie_node_count_;
    }
    TrieNode* node = slot.get();
    resolved[pi] = node;
    ++node->doc_count;

    if (have_mult && paths.max_multiplicity[pi] > 0 &&
        paths.max_multiplicity[pi] >= options_.rep_threshold) {
      ++node->rep_doc_count;
    }
    if (have_pos && paths.position_count[pi] > 0) {
      node->position_sum += paths.position_sum[pi];
      node->position_count += paths.position_count[pi];
    }
  }
}

bool FrequentPathMiner::LeafAllowed(const DocumentPaths& paths, size_t pi) {
  // The label chain root..leaf, gathered along the parent links.
  std::vector<NameId>& labels = labels_scratch_;
  labels.clear();
  for (uint32_t j = static_cast<uint32_t>(pi);
       j != DocumentPaths::kNoParentPath; j = paths.parent_index[j]) {
    labels.push_back(paths.leaf_name[j]);
  }
  std::reverse(labels.begin(), labels.end());
  return options_.constraints->LeafAllowed(labels);
}

void FrequentPathMiner::MergeFrom(const FrequentPathMiner& other) {
  document_count_ += other.document_count_;
  stats_.paths_offered += other.stats_.paths_offered;
  stats_.paths_pruned_by_constraints +=
      other.stats_.paths_pruned_by_constraints;
  // Recursion depth equals the deepest stored path, which the parser
  // already bounds; every statistic is a sum, so merge order between
  // shards cannot change the result.
  auto merge = [&](auto&& self, TrieNode& dst, const TrieNode& src) -> void {
    dst.doc_count += src.doc_count;
    dst.rep_doc_count += src.rep_doc_count;
    dst.position_sum += src.position_sum;
    dst.position_count += src.position_count;
    for (const auto& [id, child] : src.children) {
      std::unique_ptr<TrieNode>& slot = dst.children[id];
      if (slot == nullptr) {
        slot = std::make_unique<TrieNode>();
        slot->label = id;
        ++trie_node_count_;
      }
      self(self, *slot, *child);
    }
  };
  merge(merge, *root_, *other.root_);
}

void FrequentPathMiner::BuildSchemaNode(const TrieNode& trie,
                                        double parent_support,
                                        SchemaNode& out) const {
  out.label = std::string(LabelOf(trie.label));
  out.doc_count = trie.doc_count;
  out.support = document_count_ == 0
                    ? 0.0
                    : static_cast<double>(trie.doc_count) /
                          static_cast<double>(document_count_);
  out.support_ratio =
      parent_support <= 0.0 ? 1.0 : out.support / parent_support;
  out.avg_position =
      trie.position_count == 0
          ? 0.0
          : trie.position_sum / static_cast<double>(trie.position_count);
  out.rep_fraction = trie.doc_count == 0
                         ? 0.0
                         : static_cast<double>(trie.rep_doc_count) /
                               static_cast<double>(trie.doc_count);
  for (const auto& [id, child] : trie.children) {
    const double child_support =
        document_count_ == 0
            ? 0.0
            : static_cast<double>(child->doc_count) /
                  static_cast<double>(document_count_);
    const double ratio =
        out.support <= 0.0 ? 1.0 : child_support / out.support;
    // Anti-monotone pruning: a non-frequent prefix kills its subtree
    // ("once a path does not satisfy supThreshold, all its superpaths
    // need not be considered").
    if (child_support < options_.sup_threshold) continue;
    if (ratio < options_.ratio_threshold) continue;
    SchemaNode child_schema;
    BuildSchemaNode(*child, out.support, child_schema);
    out.children.push_back(std::move(child_schema));
  }
  // Ordering rule (§3.3): children ordered by average child position in
  // the documents containing the parent prefix.
  std::stable_sort(out.children.begin(), out.children.end(),
                   [](const SchemaNode& a, const SchemaNode& b) {
                     if (a.avg_position != b.avg_position) {
                       return a.avg_position < b.avg_position;
                     }
                     return a.label < b.label;
                   });
}

namespace {

size_t CountSchemaNodes(const SchemaNode& node) {
  size_t count = 1;
  for (const SchemaNode& child : node.children) {
    count += CountSchemaNodes(child);
  }
  return count;
}

}  // namespace

MajoritySchema FrequentPathMiner::Discover() {
  stats_.trie_nodes = trie_node_count_;

  if (document_count_ == 0 || root_->children.empty()) {
    stats_.frequent_paths = 0;
    return MajoritySchema();
  }

  // The schema root is the most common document root label; ties break
  // towards the lexicographically smaller label (the order the original
  // string-keyed trie iterated in), so the choice is independent of the
  // NameId interning order.
  std::vector<std::pair<std::string_view, const TrieNode*>> roots;
  roots.reserve(root_->children.size());
  for (const auto& [id, child] : root_->children) {
    roots.emplace_back(LabelOf(id), child.get());
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const TrieNode* best = nullptr;
  for (const auto& [label, child] : roots) {
    if (best == nullptr || child->doc_count > best->doc_count) {
      best = child;
    }
  }
  const double root_support = static_cast<double>(best->doc_count) /
                              static_cast<double>(document_count_);
  if (root_support < options_.sup_threshold && options_.sup_threshold > 0) {
    stats_.frequent_paths = 0;
    return MajoritySchema();
  }

  SchemaNode root_schema;
  BuildSchemaNode(*best, 0.0, root_schema);
  stats_.frequent_paths = CountSchemaNodes(root_schema);
  return MajoritySchema(std::move(root_schema));
}

MajoritySchema DiscoverDataGuide(FrequentPathMiner& miner) {
  MiningOptions saved = miner.mutable_options();
  miner.mutable_options().sup_threshold = 0.0;
  miner.mutable_options().ratio_threshold = 0.0;
  MajoritySchema schema = miner.Discover();
  miner.mutable_options() = saved;
  return schema;
}

MajoritySchema DiscoverLowerBound(FrequentPathMiner& miner) {
  MiningOptions saved = miner.mutable_options();
  miner.mutable_options().sup_threshold = 1.0;
  miner.mutable_options().ratio_threshold = 0.0;
  MajoritySchema schema = miner.Discover();
  miner.mutable_options() = saved;
  return schema;
}

}  // namespace webre
