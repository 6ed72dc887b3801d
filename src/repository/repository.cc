#include "repository/repository.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <mutex>
#include <span>
#include <type_traits>

#include "schema/path_extractor.h"
#include "util/simd_scan.h"
#include "util/thread_pool.h"
#include "xml/dtd_validator.h"

namespace webre {
namespace {

// The summary plan's unfiltered emit is a raw memcpy of the occurrence
// run; these pin the field-for-field layout mirror that makes it one.
static_assert(offsetof(PathOccurrence, doc) == offsetof(QueryMatch, doc) &&
              offsetof(PathOccurrence, pos) == offsetof(QueryMatch, pos) &&
              offsetof(PathOccurrence, flat) == offsetof(QueryMatch, flat),
              "PathOccurrence and QueryMatch must stay layout-identical");
static_assert(sizeof(QueryMatch) == sizeof(PathOccurrence));
static_assert(std::is_trivially_copyable_v<PathOccurrence> &&
              std::is_trivially_copyable_v<QueryMatch>);

/// Materializes one summary occurrence as a caller-facing match — a
/// straight field copy (the two structs share a layout), so the summary
/// plan's emit loop never dereferences into the owning document.
QueryMatch MatchFromOccurrence(const PathOccurrence& occ) {
  return QueryMatch{occ.doc, occ.pos, occ.flat};
}

/// One query step's name test against a summary trie node: Parse has
/// already resolved the name to an interned id or marked the step a
/// wildcard.
bool StepMatches(const QueryStep& step, const PathIndex& index, uint32_t id) {
  return step.wildcard || index.entry(id).name == step.name_id;
}

/// Pattern-matches the structural part of steps [0, step_count) of
/// `query` (axes and name tests; predicates are the caller's business)
/// against the summary trie and returns the matching path ids, sorted.
/// This is DataGuide query evaluation: state = set of trie nodes, child
/// steps follow trie edges, descendant steps take the downward closure
/// — O(paths) per step, independent of corpus size.
std::vector<uint32_t> MatchSummaryPaths(const PathIndex& index,
                                        const PathQuery& query,
                                        size_t step_count) {
  const std::vector<QueryStep>& steps = query.steps();
  const uint32_t n = static_cast<uint32_t>(index.path_count());
  if (n == 0 || step_count == 0) return {};

  std::vector<uint32_t> cur;
  {
    // Step 0 starts at the virtual parent of the document roots.
    if (steps[0].descendant) {
      for (uint32_t id = 0; id < n; ++id) {
        if (StepMatches(steps[0], index, id)) cur.push_back(id);
      }
    } else {
      for (uint32_t id : index.roots()) {
        if (StepMatches(steps[0], index, id)) cur.push_back(id);
      }
    }
  }

  for (size_t s = 1; s < step_count && !cur.empty(); ++s) {
    const QueryStep& step = steps[s];
    std::vector<uint32_t> next;
    if (!step.descendant) {
      // Every trie node has one parent, so children of distinct nodes
      // are disjoint — no dedup needed.
      for (uint32_t id : cur) {
        for (uint32_t child : index.entry(id).children) {
          if (StepMatches(step, index, child)) next.push_back(child);
        }
      }
    } else {
      // Proper descendants of the current set, each visited once.
      std::vector<char> visited(n, 0);
      std::vector<uint32_t> stack;
      for (uint32_t id : cur) {
        for (uint32_t child : index.entry(id).children) {
          if (!visited[child]) {
            visited[child] = 1;
            stack.push_back(child);
          }
        }
      }
      while (!stack.empty()) {
        const uint32_t id = stack.back();
        stack.pop_back();
        if (StepMatches(step, index, id)) next.push_back(id);
        for (uint32_t child : index.entry(id).children) {
          if (!visited[child]) {
            visited[child] = 1;
            stack.push_back(child);
          }
        }
      }
    }
    cur = std::move(next);
  }
  std::sort(cur.begin(), cur.end());
  cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
  return cur;
}

/// A caller-facing match from an already-materialized one (the value
/// column seeds), so MergeDocPosRuns serves both run types.
const QueryMatch& MatchFromOccurrence(const QueryMatch& match) {
  return match;
}

/// Merges `runs` — each (doc, pos)-sorted, no two sharing a (doc, pos)
/// (an element has exactly one label path) — into one (doc, pos)-ordered
/// answer. T is PathOccurrence (summary occurrence runs) or QueryMatch
/// (value-column seeds); the two share a layout.
template <typename T>
std::vector<QueryMatch> MergeDocPosRuns(
    const std::vector<std::span<const T>>& runs) {
  std::vector<QueryMatch> out;
  size_t total = 0;
  for (std::span<const T> run : runs) total += run.size();

  if (runs.size() == 1) {
    // The hot case (every exact-path query): the run IS the answer, and
    // the structs are layout-identical (static_asserts at the top of
    // this file), so emit is one block copy — no per-match capacity
    // check or call.
    out.resize(total);
    if (total > 0) {
      std::memcpy(static_cast<void*>(out.data()),
                  static_cast<const void*>(runs[0].data()),
                  total * sizeof(QueryMatch));
    }
    return out;
  }

  out.reserve(total);
  if (runs.size() == 2) {
    // Two runs (the common //LABEL shape: one path per parent
    // context): a classic two-pointer merge, one compare per emitted
    // match instead of the generic min-scan's per-run loop.
    const std::span<const T> a = runs[0];
    const std::span<const T> b = runs[1];
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      const bool take_a =
          a[i].doc < b[j].doc || (a[i].doc == b[j].doc && a[i].pos < b[j].pos);
      out.push_back(MatchFromOccurrence(take_a ? a[i] : b[j]));
      if (take_a) {
        ++i;
      } else {
        ++j;
      }
    }
    for (; i < a.size(); ++i) out.push_back(MatchFromOccurrence(a[i]));
    for (; j < b.size(); ++j) out.push_back(MatchFromOccurrence(b[j]));
    return out;
  }

  if (runs.size() <= 8) {
    // Few runs: a linear min-scan over the run heads.
    std::vector<size_t> cursor(runs.size(), 0);
    for (size_t emitted = 0; emitted < total; ++emitted) {
      size_t best = runs.size();
      for (size_t r = 0; r < runs.size(); ++r) {
        if (cursor[r] >= runs[r].size()) continue;
        if (best == runs.size()) {
          best = r;
          continue;
        }
        const T& a = runs[r][cursor[r]];
        const T& b = runs[best][cursor[best]];
        if (a.doc < b.doc || (a.doc == b.doc && a.pos < b.pos)) best = r;
      }
      out.push_back(MatchFromOccurrence(runs[best][cursor[best]++]));
    }
    return out;
  }

  // Many runs (a //* or wildcard-heavy pattern): no comparison sort over
  // all of them. Document ids are dense, so a stable counting pass
  // buckets the matches by document, leaving only each document's own
  // matches to order by pos.
  if (total == 0) return out;
  DocId lo = std::numeric_limits<DocId>::max();
  DocId hi = 0;
  for (std::span<const T> run : runs) {
    if (run.empty()) continue;
    lo = std::min(lo, run.front().doc);
    hi = std::max(hi, run.back().doc);
  }
  // end[d] ends up one past document lo + d's bucket.
  std::vector<size_t> end(size_t{hi} - lo + 1, 0);
  for (std::span<const T> run : runs) {
    for (const T& m : run) ++end[m.doc - lo];
  }
  size_t filled = 0;
  for (size_t& e : end) {
    filled += e;
    e = filled - e;  // bucket start, advanced to its end by the scatter
  }
  out.resize(total);
  for (std::span<const T> run : runs) {
    for (const T& m : run) out[end[m.doc - lo]++] = MatchFromOccurrence(m);
  }
  auto less = [](const QueryMatch& a, const QueryMatch& b) {
    return a.pos < b.pos;
  };
  size_t begin = 0;
  for (size_t e : end) {
    if (e - begin > 1 &&
        !std::is_sorted(out.begin() + begin, out.begin() + e, less)) {
      std::sort(out.begin() + begin, out.begin() + e, less);
    }
    begin = e;
  }
  return out;
}

}  // namespace

XmlRepository::XmlRepository(RepositoryOptions options) {
  size_t shards = options.num_shards == 0 ? DefaultThreadCount()
                                          : options.num_shards;
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

XmlRepository::~XmlRepository() = default;

void XmlRepository::SetDtd(Dtd dtd) {
  dtd_ = std::move(dtd);
  has_dtd_ = true;
}

StatusOr<std::unique_ptr<FlatDoc>> XmlRepository::Prepare(
    std::unique_ptr<Node> document) const {
  if (document == nullptr || !document->is_element()) {
    return Status::InvalidArgument("document root must be an element");
  }
  if (has_dtd_) {
    DtdValidationResult validation = ValidateAgainstDtd(*document, dtd_);
    if (!validation.valid()) {
      return Status::FailedPrecondition(
          "document does not conform to the repository DTD: " +
          validation.violations[0].message);
    }
  }
  // The tree has served its purpose once frozen: it is freed here,
  // before admission even begins.
  return FlatDoc::Freeze(*document);
}

StatusOr<DocId> XmlRepository::Add(std::unique_ptr<Node> document) {
  // Everything per-document — validation, freezing — runs outside any
  // lock; only the index updates are serialized.
  StatusOr<std::unique_ptr<FlatDoc>> flat = Prepare(std::move(document));
  if (!flat.ok()) return flat.status();
  return AddFrozen(std::move(flat).value());
}

StatusOr<DocId> XmlRepository::AddFrozen(std::unique_ptr<FlatDoc> flat) {
  if (flat == nullptr || flat->element_count() == 0) {
    return Status::InvalidArgument("frozen document must have a root element");
  }
  LocalDocumentPaths local = CollectLocalPaths(*flat);
  flat_bytes_.Add(flat->block_bytes());
  const FlatDoc* flat_ptr = flat.get();

  const DocId id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  const size_t shard_count = shards_.size();
  Shard& shard = *shards_[id % shard_count];
  const size_t slot = id / shard_count;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (shard.slots.size() <= slot) shard.slots.resize(slot + 1);
    shard.elements += local.element_count;
    shard.slots[slot] = std::move(flat);
  }
  {
    // Lock order: shard, then summary (same as every reader). The
    // summary's occurrences carry flat_ptr; releasing this lock
    // publishes the (immutable) FlatDoc to lock-free readers.
    std::unique_lock<std::shared_mutex> lock(summary_mutex_);
    summary_.AddDocument(local, id, *flat_ptr);
  }
  // Publication is complete; only now may cached results keyed on the
  // previous generation become invalid (SnapshotGenerations contract).
  shard.generation.fetch_add(1, std::memory_order_release);
  return id;
}

void XmlRepository::SnapshotGenerations(std::vector<uint64_t>& out) const {
  out.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    out[i] = shards_[i]->generation.load(std::memory_order_acquire);
  }
}

Status XmlRepository::RestoreDocumentAt(DocId id,
                                        std::unique_ptr<FlatDoc> flat) {
  if (flat == nullptr || flat->element_count() == 0) {
    return Status::InvalidArgument("frozen document must have a root element");
  }
  flat_bytes_.Add(flat->block_bytes());

  const size_t shard_count = shards_.size();
  Shard& shard = *shards_[id % shard_count];
  const size_t slot = id / shard_count;
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (shard.slots.size() <= slot) shard.slots.resize(slot + 1);
  if (shard.slots[slot] != nullptr) {
    return Status::InvalidArgument("restore: document id already occupied");
  }
  shard.elements += flat->element_count();
  shard.slots[slot] = std::move(flat);
  return Status::Ok();
}

void XmlRepository::SealRestore(size_t doc_count) {
  next_id_.store(doc_count, std::memory_order_release);
}

Status XmlRepository::RestoreSummaryEntry(
    uint32_t parent, NameId name, std::vector<DocId> docs,
    std::vector<std::pair<DocId, uint32_t>> occurrences) {
  const size_t doc_count = size();
  for (DocId doc : docs) {
    if (doc >= doc_count) {
      return Status::InvalidArgument(
          "summary restore: posting references unknown document");
    }
  }
  // Stamp each (doc, pos) with the restored FlatDoc. Occurrences are
  // (doc, pos)-sorted, so one cached lookup per document run suffices.
  std::vector<PathOccurrence> stamped;
  stamped.reserve(occurrences.size());
  DocId cached_doc = 0;
  const FlatDoc* cached_flat = nullptr;
  for (const auto& [doc, pos] : occurrences) {
    if (cached_flat == nullptr || doc != cached_doc) {
      cached_flat = doc < doc_count ? flat_document(doc) : nullptr;
      cached_doc = doc;
      if (cached_flat == nullptr) {
        return Status::InvalidArgument(
            "summary restore: occurrence references unknown document");
      }
    }
    if (pos >= cached_flat->element_count()) {
      return Status::InvalidArgument(
          "summary restore: occurrence position out of range");
    }
    stamped.push_back(PathOccurrence{doc, pos, cached_flat});
  }
  std::unique_lock<std::shared_mutex> lock(summary_mutex_);
  return summary_.LoadEntry(parent, name, std::move(docs),
                            std::move(stamped));
}

void XmlRepository::WithSummary(
    const std::function<void(const PathIndex&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(summary_mutex_);
  fn(summary_);
}

const FlatDoc* XmlRepository::flat_document(DocId id) const {
  const size_t shard_count = shards_.size();
  const Shard& shard = *shards_[id % shard_count];
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  const size_t slot = id / shard_count;
  if (slot >= shard.slots.size()) return nullptr;
  return shard.slots[slot].get();
}

const std::vector<DocId>& XmlRepository::DocumentsWithPath(
    const LabelPath& path) const {
  if (path.empty()) return PathIndex::EmptyDocs();
  std::vector<NameId> labels(path.size());
  NameTable& names = NameTable::Global();
  for (size_t i = 0; i < path.size(); ++i) {
    labels[i] = names.Find(path[i]);
    // A label no document ever interned cannot be on any stored path.
    if (labels[i] == kInvalidNameId) return PathIndex::EmptyDocs();
  }
  std::shared_lock<std::shared_mutex> lock(summary_mutex_);
  return summary_.DocsOf(summary_.FindPath(labels.data(), labels.size()));
}

StatusOr<std::vector<QueryMatch>> XmlRepository::Query(
    std::string_view query_text) const {
  StatusOr<PathQuery> query = PathQuery::Parse(query_text);
  if (!query.ok()) return query.status();
  return Query(*query);
}

std::vector<QueryMatch> XmlRepository::Query(const PathQuery& query) const {
  const std::vector<QueryStep>& steps = query.steps();
  if (steps.empty()) return {};
  const double begin_s = obs::MonotonicSeconds();
  queries_.Increment();

  // One seed source, one executor. k is the first step carrying a
  // [val~…] predicate; the plan counters classify the query by this
  // shape alone, so they are shard- and SIMD-invariant.
  size_t k = 0;
  while (k < steps.size() && steps[k].val_contains.empty()) ++k;
  std::vector<QueryMatch> out;
  if (k == steps.size()) {
    out = QuerySummaryRuns(query);
    index_hits_.Increment();
    plan_summary_.Increment();
  } else if (k + 1 == steps.size()) {
    out = SeedFromColumns(query, k);
    index_hits_.Increment();
    plan_sweep_.Increment();
  } else {
    out = EvaluateSuffix(query, k + 1, SeedFromColumns(query, k));
    prefix_hits_.Increment();
    (query.SimplePrefixLength() > 0 ? plan_seeded_ : plan_scan_).Increment();
  }
  matches_.Add(out.size());
  eval_us_.Record(static_cast<uint64_t>(
      (obs::MonotonicSeconds() - begin_s) * 1e6));
  return out;
}

std::vector<QueryMatch> XmlRepository::QuerySummaryRuns(
    const PathQuery& query) const {
  std::shared_lock<std::shared_mutex> lock(summary_mutex_);
  std::vector<std::span<const PathOccurrence>> runs;
  for (uint32_t id : MatchSummaryPaths(summary_, query, query.steps().size())) {
    runs.emplace_back(summary_.entry(id).occurrences);
  }
  return MergeDocPosRuns(runs);
}

std::vector<QueryMatch> XmlRepository::SeedFromColumns(const PathQuery& query,
                                                       size_t k) const {
  const std::string_view lowered = query.steps()[k].val_lower;
  const size_t m = lowered.size();

  // Everything here runs under the summary lock without touching any
  // shard (lock order: shard before summary, never the reverse).
  std::shared_lock<std::shared_mutex> lock(summary_mutex_);

  // One scanner run per matched path's column. A hit at column offset
  // h lies in the value v with off[v] <= h < off[v + 1] (values are
  // adjacent and ascending, so v only advances) and is a match iff it
  // also ENDS inside v — a hit straddling into the next value exists
  // only in the concatenation. Either way no later hit starting in v can
  // matter (v matched, or every later start in v straddles too), so the
  // scan resumes at the next value: the loop is bounded by the values.
  std::vector<QueryMatch> hits;
  std::vector<size_t> run_end;  // one past each path's hits in `hits`
  uint64_t bytes = 0;
  for (uint32_t id : MatchSummaryPaths(summary_, query, k + 1)) {
    const PathIndex::Entry& entry = summary_.entry(id);
    const std::string_view column = entry.column;
    const uint64_t* off = entry.column_off.data();
    bytes += column.size();
    size_t v = 0;
    for (size_t h = FindLowered(column, lowered); h != std::string_view::npos;
         h = FindLowered(column, lowered, off[v + 1])) {
      while (off[v + 1] <= h) ++v;
      if (h + m <= off[v + 1]) {
        hits.push_back(MatchFromOccurrence(entry.occurrences[v]));
      }
    }
    if (hits.size() > (run_end.empty() ? 0 : run_end.back())) {
      run_end.push_back(hits.size());
    }
  }
  predicate_bytes_.Add(bytes);
  // One path's hits are the answer as they stand.
  if (run_end.size() <= 1) return hits;
  std::vector<std::span<const QueryMatch>> runs;
  size_t begin = 0;
  for (size_t end : run_end) {
    runs.emplace_back(hits.data() + begin, end - begin);
    begin = end;
  }
  return MergeDocPosRuns(runs);
}

std::vector<QueryMatch> XmlRepository::EvaluateSuffix(
    const PathQuery& query, size_t first_step,
    const std::vector<QueryMatch>& seeds) const {
  // Seeded documents are evaluated one at a time on the calling thread,
  // without any lock: frozen documents are immutable. One scratch serves
  // every document, so steady-state evaluation allocates nothing per
  // document.
  std::vector<QueryMatch> out;
  FlatEvalScratch scratch;
  std::vector<uint32_t> frontier;
  uint64_t docs = 0;
  for (size_t i = 0; i < seeds.size();) {
    const DocId doc = seeds[i].doc;
    size_t j = i + 1;
    while (j < seeds.size() && seeds[j].doc == doc) ++j;
    ++docs;
    // Two-tier lookahead: FlatDoc structs ~8 seeds out, the next
    // document's arrays now (names, subtree_end, text_off, text) — the
    // array addresses live in the struct, and per-document work is
    // shorter than a DRAM round trip.
    if (i + 8 < seeds.size()) __builtin_prefetch(seeds[i + 8].flat);
    if (j < seeds.size()) {
      const FlatDoc* ahead = seeds[j].flat;
      __builtin_prefetch(ahead->block_data());
      __builtin_prefetch(ahead->block_data() +
                         size_t{2} * 4 * ahead->element_count());
      __builtin_prefetch(ahead->text_offsets());
      __builtin_prefetch(ahead->text_pool().data());
    }
    const FlatDoc* flat = seeds[i].flat;
    frontier.clear();
    for (size_t s = i; s < j; ++s) frontier.push_back(seeds[s].pos);
    std::vector<uint32_t> result =
        query.EvaluateFrom(*flat, std::move(frontier), first_step, scratch);
    for (uint32_t e : result) out.push_back(QueryMatch{doc, e, flat});
    // EvaluateFrom consumes and returns the frontier buffer; moving it
    // back recycles the capacity.
    frontier = std::move(result);
    i = j;
  }
  fallback_walks_.Add(docs);
  predicate_bytes_.Add(scratch.predicate_bytes_scanned());
  return out;
}

RepositoryStats XmlRepository::Stats() const {
  RepositoryStats stats;
  stats.documents = size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    stats.elements += shard->elements;
  }
  std::shared_lock<std::shared_mutex> lock(summary_mutex_);
  stats.distinct_paths = summary_.path_count();
  stats.flat_bytes = flat_bytes_.value();
  return stats;
}

MajoritySchema XmlRepository::DiscoverSchema(
    const MiningOptions& options) const {
  FrequentPathMiner miner(options);
  std::vector<const FlatDoc*> docs;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    docs.clear();
    {
      std::shared_lock<std::shared_mutex> lock(shard->mutex);
      docs.reserve(shard->slots.size());
      for (const std::unique_ptr<FlatDoc>& flat : shard->slots) {
        if (flat != nullptr) docs.push_back(flat.get());
      }
    }
    // Every miner statistic is an order-independent sum, so shard-major
    // order mines exactly what id order would.
    for (const FlatDoc* flat : docs) {
      miner.AddDocumentPaths(ExtractPaths(*flat));
    }
  }
  return miner.Discover();
}

obs::QueryStatsView XmlRepository::query_stats() const {
  obs::QueryStatsView view;
  view.queries = queries_.value();
  view.index_hits = index_hits_.value();
  view.prefix_hits = prefix_hits_.value();
  view.fallback_walks = fallback_walks_.value();
  view.matches = matches_.value();
  view.predicate_bytes_scanned = predicate_bytes_.value();
  view.plan_summary = plan_summary_.value();
  view.plan_seeded = plan_seeded_.value();
  view.plan_scan = plan_scan_.value();
  view.plan_sweep = plan_sweep_.value();
  view.eval_us = eval_us_.Snapshot();
  view.flat_bytes = flat_bytes_.value();
  return view;
}

}  // namespace webre
