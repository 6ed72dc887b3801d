#ifndef WEBRE_REPOSITORY_REPOSITORY_H_
#define WEBRE_REPOSITORY_REPOSITORY_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "repository/path_index.h"
#include "repository/query.h"
#include "schema/frequent_paths.h"
#include "schema/label_path.h"
#include "util/status.h"
#include "xml/dtd.h"
#include "xml/flat_doc.h"
#include "xml/node.h"

namespace webre {

/// One query hit: an element inside a stored document, identified by
/// (doc, pos) plus the frozen document that stores it. `name()`/`val()`
/// read that block lazily — keeping the match itself a 24-byte value
/// the hot emit loops can stream — and view repository-owned storage,
/// valid for the repository's lifetime.
struct QueryMatch {
  DocId doc = 0;
  /// Pre-order index of the element among the document's elements —
  /// the in-document order key and the element's index into `flat`.
  uint32_t pos = 0;
  /// The frozen document owning `pos`.
  const FlatDoc* flat = nullptr;

  /// Interned element name.
  NameId name() const { return flat->name(pos); }
  /// The element's `val` attribute (empty if absent).
  std::string_view val() const { return flat->val(pos); }
};

/// Aggregate repository statistics.
struct RepositoryStats {
  size_t documents = 0;
  size_t elements = 0;
  /// Distinct label paths across all documents (the repository's Data
  /// Guide size).
  size_t distinct_paths = 0;
  /// Total bytes of frozen FlatDoc blocks — the steady-state document
  /// storage footprint.
  size_t flat_bytes = 0;
};

/// Serving-layer configuration.
struct RepositoryOptions {
  /// Document shards. 0 (the default) means one per hardware thread.
  /// More shards reduce Add contention; query results are identical
  /// for every value.
  size_t num_shards = 0;
};

/// The XML repository the pipeline feeds (§1: "the integration of topic
/// specific HTML documents into a repository of XML documents"; §5's
/// Quixote prototype [11]) — organized as a concurrent serving layer.
///
/// Layout: documents are sharded by id (shard = id mod N). Each shard
/// owns its documents and a shared_mutex, so reads proceed concurrently
/// with each other and with Add on other shards. A repository-wide
/// structural summary (a DataGuide over NameId paths) keeps, per path,
/// its element occurrences and a value column — the path's ASCII-lowered
/// values concatenated in (doc, pos) order — and answers every query
/// without touching any shard. The summary is the repository's one
/// path trie: schema discovery mines the stored documents on demand
/// (DiscoverSchema) instead of keeping a second trie fed at admission.
///
/// Storage: Add freezes each admitted tree into a FlatDoc — one
/// contiguous read-only block per document — and frees the tree before
/// taking any lock, so the repository never holds a Node and
/// steady-state RSS is the flat blocks plus the indexes. Summary
/// occurrences carry (pos, owning FlatDoc), making suffix evaluation
/// lock-free index arithmetic.
///
/// Query execution is one seed source plus one executor. Let k be the
/// first step carrying a `[val~…]` predicate:
///  - no predicate: the summary trie is pattern-matched and the
///    matched paths' occurrence runs are the answer;
///  - otherwise steps [0, k] are pattern-matched on the trie and each
///    matched path's value column is swept once by the SIMD scanner;
///    the hits, bucketed by document, are the elements matching steps
///    [0, k] in (doc, pos) order;
///  - steps after k are evaluated per seeded document by
///    PathQuery::EvaluateFrom on the calling thread.
/// Every query increments exactly one query.plan.* counter, defined by
/// its shape: `summary` (no predicate), `sweep` (a predicate on the
/// final step only), `seeded` (an intermediate predicate behind a
/// child-axis name prefix) or `scan` (an intermediate predicate under a
/// `//` or `*` prefix). query.index_hits counts queries answered
/// without per-document evaluation, query.prefix_hits those with an
/// EvaluateFrom suffix; query.fallback_walks counts the documents that
/// suffix evaluated. Predicate work — column bytes swept plus the
/// suffix evaluator's charge — is query.predicate_bytes_scanned.
/// Every counter depends only on the corpus and the query, never on
/// sharding, threading or the SIMD level, and all queries return
/// matches sorted by (doc id, document order), byte-identical across
/// shard counts and every SIMD level.
///
/// Lock order: shard before summary, never the reverse. (This is why
/// occurrences carry the FlatDoc pointer: seeding runs under the
/// summary lock, where taking a shard lock is forbidden.)
///
/// Optionally the repository enforces a DTD on admission (documents are
/// expected to have been conformed by the Document Mapping Component).
/// Configure SetDtd before concurrent serving starts.
class XmlRepository {
 public:
  explicit XmlRepository(RepositoryOptions options = {});
  ~XmlRepository();

  XmlRepository(const XmlRepository&) = delete;
  XmlRepository& operator=(const XmlRepository&) = delete;

  /// Makes admission require conformance to `dtd` (copied). Documents
  /// already stored are not re-checked.
  void SetDtd(Dtd dtd);
  bool has_dtd() const { return has_dtd_; }
  const Dtd& dtd() const { return dtd_; }

  size_t num_shards() const { return shards_.size(); }

  /// Adds a document, indexing its label paths in the structural
  /// summary. Safe to call concurrently with other Add and Query calls.
  /// With a DTD set, a non-conforming document is rejected
  /// (FailedPrecondition) listing the first violation. The tree is
  /// frozen into a FlatDoc and freed before admission completes; a
  /// tree carved from a NodeArena is freed into it, so the caller keeps
  /// that arena alive across the call and may drop it as soon as Add
  /// returns.
  StatusOr<DocId> Add(std::unique_ptr<Node> document);

  /// The admission prelude of Add, shared with DurableRepository::Add:
  /// checks that the root is an element, validates against the DTD when
  /// one is set (the first violation names the error), freezes the tree
  /// and frees it. Takes no lock.
  StatusOr<std::unique_ptr<FlatDoc>> Prepare(
      std::unique_ptr<Node> document) const;

  // ---- Storage-layer surface (src/storage) ----
  //
  // The durable repository persists frozen documents; these entry
  // points admit/restore them without a pointer tree. The DTD check is
  // NOT re-run here — recovered documents passed it at their original
  // admission, and DurableRepository::Add validates before freezing.

  /// Admits an already-frozen document: full admission including the
  /// structural summary, identical in every observable way to Add().
  /// Used by durable Add and WAL replay. Thread-safe like Add.
  StatusOr<DocId> AddFrozen(std::unique_ptr<FlatDoc> flat);

  /// Snapshot restore: stores `flat` at exactly `id` without touching
  /// the structural summary — the snapshot loader installs the summary
  /// wholesale via RestoreSummaryEntry, so per-document feeding would
  /// double-count — and without walking the document. Shards may be
  /// restored concurrently (shard structures are disjoint; ids within
  /// one shard must still arrive in ascending order, and each id must
  /// be restored exactly once). Does not advance size() — call
  /// SealRestore once every document is in, before any
  /// RestoreSummaryEntry or serving.
  Status RestoreDocumentAt(DocId id, std::unique_ptr<FlatDoc> flat);

  /// Publishes a RestoreDocumentAt prefix: size() becomes `doc_count`.
  void SealRestore(size_t doc_count);

  /// Snapshot restore: appends one structural-summary path entry (in
  /// the snapshot's creation order — parents precede children).
  /// Occurrences arrive as (doc, pos) pairs and are stamped with the
  /// already-restored documents' FlatDoc pointers; a pair referencing
  /// an unknown document or an out-of-range position is rejected, so a
  /// corrupt snapshot can never plant a dangling occurrence.
  Status RestoreSummaryEntry(
      uint32_t parent, NameId name, std::vector<DocId> docs,
      std::vector<std::pair<DocId, uint32_t>> occurrences);

  /// Runs `fn` with the structural summary under its shared lock — how
  /// the snapshot writer serializes the summary without being a friend.
  void WithSummary(const std::function<void(const PathIndex&)>& fn) const;

  /// Documents admitted so far (ids are dense: 0 … size()-1).
  size_t size() const { return next_id_.load(std::memory_order_acquire); }

  /// Fills `out` with one monotonic generation counter per shard. A
  /// shard's counter is bumped once per admission, strictly AFTER the
  /// document is fully published (shard structures and structural
  /// summary) — so any reader that observes generation g also observes
  /// every document the first g admissions of that shard produced. The
  /// serving layer's query-result cache keys on this vector: a cached
  /// result is valid exactly while every shard still reports the
  /// generation it was computed under (src/serve/cache.h, DESIGN.md
  /// §15). `out` is resized to num_shards().
  void SnapshotGenerations(std::vector<uint64_t>& out) const;

  /// Borrowed pointer to a stored document's frozen form; null for
  /// unknown ids.
  const FlatDoc* flat_document(DocId id) const;

  /// Documents containing the exact root-emanating label path,
  /// ascending. Returns a reference into the structural summary (a
  /// shared empty sentinel for misses); it is stable until the next
  /// Add, so don't hold it across admissions.
  const std::vector<DocId>& DocumentsWithPath(const LabelPath& path) const;

  /// Parses and runs `query_text` across the repository; matches are in
  /// (doc, document-order) order.
  StatusOr<std::vector<QueryMatch>> Query(std::string_view query_text) const;

  /// Runs a pre-parsed query. Safe to call concurrently with Add.
  std::vector<QueryMatch> Query(const PathQuery& query) const;

  RepositoryStats Stats() const;

  /// Discovers the majority schema of the stored documents: one
  /// FrequentPathMiner built with `options` mines every stored FlatDoc
  /// (ExtractPaths), so the result equals a fresh miner's over the same
  /// documents for every shard count, threshold and constraint set.
  /// Costs one walk per stored document per call. Each shard's document
  /// pointers are copied under its shared lock and mined outside it
  /// (stored FlatDocs are immutable and live as long as the
  /// repository), so concurrent Adds wait only for the copy; documents
  /// admitted during the call may or may not be counted.
  MajoritySchema DiscoverSchema(const MiningOptions& options = {}) const;

  /// Snapshot of the query.* counters and the per-query latency
  /// histogram (obs wiring: PipelineMetrics::MergeQueryStats).
  obs::QueryStatsView query_stats() const;

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    /// Documents of this shard; slot = id / num_shards. Null = a
    /// transient hole while a lower id's Add is in flight.
    std::vector<std::unique_ptr<FlatDoc>> slots;
    /// Element count, maintained incrementally at Add.
    size_t elements = 0;
    /// Admissions completed on this shard; bumped (release) only after
    /// the document is visible everywhere, read by SnapshotGenerations.
    std::atomic<uint64_t> generation{0};
  };

  /// Predicate-free query: the matched paths' occurrence runs, merged
  /// into (doc, pos) order.
  std::vector<QueryMatch> QuerySummaryRuns(const PathQuery& query) const;
  /// The elements matching steps [0, k] (k = the first predicate step),
  /// in (doc, pos) order, from the value columns of the paths steps
  /// [0, k] match.
  std::vector<QueryMatch> SeedFromColumns(const PathQuery& query,
                                          size_t k) const;
  /// Evaluates steps [first_step, …) from `seeds` (steps
  /// [0, first_step) matched, (doc, pos)-sorted), one document at a
  /// time.
  std::vector<QueryMatch> EvaluateSuffix(
      const PathQuery& query, size_t first_step,
      const std::vector<QueryMatch>& seeds) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<DocId> next_id_{0};

  /// Repository-wide structural summary; guarded by summary_mutex_,
  /// taken after a shard mutex, never before.
  mutable std::shared_mutex summary_mutex_;
  PathIndex summary_;

  mutable obs::Counter queries_;
  mutable obs::Counter index_hits_;
  mutable obs::Counter prefix_hits_;
  mutable obs::Counter fallback_walks_;
  mutable obs::Counter matches_;
  mutable obs::Counter predicate_bytes_;
  mutable obs::Counter plan_summary_;
  mutable obs::Counter plan_seeded_;
  mutable obs::Counter plan_scan_;
  mutable obs::Counter plan_sweep_;
  mutable obs::Histogram eval_us_;
  obs::Counter flat_bytes_;

  Dtd dtd_;
  bool has_dtd_ = false;
};

}  // namespace webre

#endif  // WEBRE_REPOSITORY_REPOSITORY_H_
