#ifndef WEBRE_OBS_METRICS_H_
#define WEBRE_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace webre {
namespace obs {

/// Monotonic wall clock in seconds (steady_clock). Every timestamp in the
/// observability layer — stage timers, trace spans — comes from this one
/// source so durations computed across modules share a timebase.
double MonotonicSeconds();

/// A monotonically increasing counter, safe for concurrent writers.
///
/// The hot path is lock-free: writers pick one of kShards cache-line-
/// padded atomic slots via a cheap per-thread round-robin id and do a
/// relaxed fetch_add, so concurrent workers do not bounce one cache line
/// between cores. Readers (value/snapshot time) sum the shards; the sum
/// is exact once writers have quiesced — which is the pipeline's report
/// point, after all worker tasks joined.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n`. Lock-free, safe from any thread.
  void Add(uint64_t n) {
    slots_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  void Increment() { Add(1); }

  /// Sum over all shards. Exact when no writer is concurrently active.
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Slot& slot : slots_) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Resets every shard to zero (quiesced writers only).
  void Reset() {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;  // power of two

  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };

  /// Per-thread shard id, assigned round-robin on a thread's first use of
  /// any Counter. Stable for the thread's lifetime, so each pipeline
  /// worker keeps hitting its own cache line.
  static size_t ShardIndex();

  Slot slots_[kShards];
};

/// Tracks the maximum of all recorded values (e.g. the largest resource-
/// budget consumption any single document reached). Lock-free CAS max.
class MaxGauge {
 public:
  MaxGauge() = default;
  MaxGauge(const MaxGauge&) = delete;
  MaxGauge& operator=(const MaxGauge&) = delete;

  void Record(uint64_t v) {
    uint64_t current = max_.load(std::memory_order_relaxed);
    while (v > current &&
           !max_.compare_exchange_weak(current, v,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t value() const { return max_.load(std::memory_order_relaxed); }
  void Reset() { max_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> max_{0};
};

/// Point-in-time view of a Histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< 0 when count == 0.
  uint64_t max = 0;
  /// bucket[i] counts values in [2^(i-1), 2^i - 1]; bucket[0] counts 0.
  std::vector<uint64_t> buckets;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A log2-bucketed histogram of non-negative integers (typically
/// microseconds), safe for concurrent writers. Each bucket is one relaxed
/// atomic increment; min/max are CAS loops. 64 buckets cover the full
/// uint64 range, so Record never clips.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t v);

  /// Folds a snapshot of another histogram in (bucket-wise sums, CAS
  /// min/max) — how a component-local histogram (e.g. the repository's
  /// per-query latency) lands in the batch metrics.
  void Merge(const HistogramSnapshot& other);

  /// Merged view. Exact when no writer is concurrently active.
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  static constexpr size_t kBuckets = 64;

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Snapshot of a query-serving component's counters (XmlRepository
/// exposes one; PipelineMetrics::MergeQueryStats folds it into the batch
/// metrics as the query.* counter group and the query_us histogram).
struct QueryStatsView {
  uint64_t queries = 0;         ///< Query() calls answered
  uint64_t index_hits = 0;      ///< answered without per-doc evaluation
  uint64_t prefix_hits = 0;     ///< seeded, then an EvaluateFrom suffix
  uint64_t fallback_walks = 0;  ///< documents the suffix evaluated
  uint64_t matches = 0;         ///< matches returned across all queries
  /// Bytes of value text the predicate engine inspected: the value
  /// columns swept for the first predicate, plus the full lengths of
  /// candidate slices (or pools) later predicates inspected, charged
  /// independently of early exits — deterministic across shard/thread
  /// counts and SIMD levels.
  uint64_t predicate_bytes_scanned = 0;
  /// Plan classification by query shape, exactly one per query (they
  /// sum to `queries`): no predicate, a predicate on the final step
  /// only, an intermediate predicate behind a child-axis name prefix,
  /// an intermediate predicate under a `//` or `*` prefix.
  uint64_t plan_summary = 0;
  uint64_t plan_sweep = 0;
  uint64_t plan_seeded = 0;
  uint64_t plan_scan = 0;
  uint64_t flat_bytes = 0;      ///< frozen FlatDoc block bytes stored
  HistogramSnapshot eval_us;    ///< per-query latency, microseconds
};

/// Snapshot of the network serving front end's counters (serve's
/// Server exposes one; PipelineMetrics::MergeServeStats folds it into
/// the batch metrics as the serve.* counter group). The request_us
/// histogram is served by the server's own stats endpoint and is not
/// merged into --metrics-json (query latency is already covered by
/// query_us).
struct ServeStatsView {
  uint64_t accepted_connections = 0;  ///< connections accepted since start
  uint64_t active_connections = 0;    ///< currently open connections
  uint64_t requests = 0;              ///< request frames/lines decoded
  uint64_t shed_requests = 0;         ///< shed by admission control
  uint64_t errors = 0;                ///< non-ok responses besides sheds
  uint64_t cache_hits = 0;            ///< query answers served from cache
  uint64_t cache_misses = 0;          ///< query answers evaluated fresh
  uint64_t cache_evictions = 0;       ///< entries evicted by the byte cap
  uint64_t max_queue_depth = 0;       ///< in-flight high-water mark
  uint64_t loops = 0;                 ///< event-loop (reactor) threads
  uint64_t wakeups = 0;               ///< eventfd rings (empty→non-empty)
  uint64_t wakeups_coalesced = 0;     ///< rings suppressed (ring non-empty)
  uint64_t handoffs = 0;              ///< accepted fds handed across loops
  HistogramSnapshot request_us;       ///< per-request latency, microseconds
};

/// Snapshot of the durable storage layer's counters (storage's
/// DurableRepository exposes one; PipelineMetrics::MergeStorageStats
/// folds it into the batch metrics as the storage.* counter group).
struct StorageStatsView {
  uint64_t wal_appends = 0;          ///< records appended across shards
  uint64_t wal_replayed = 0;         ///< records admitted during Open
  uint64_t wal_truncated_bytes = 0;  ///< torn/corrupt bytes dropped at Open
  uint64_t snapshot_bytes = 0;       ///< bytes of the snapshot served/written
  uint64_t mmap_hits = 0;            ///< documents served as mmap views
};

/// RAII wall-time meter for one stage execution: counts one call and the
/// elapsed nanoseconds into the given Counters on destruction (or on
/// Stop(), whichever comes first). The begin/end timestamps are exposed
/// so callers can also emit a trace span for the same interval.
class StageTimer {
 public:
  /// Either counter may be null (that aspect is then not recorded).
  StageTimer(Counter* calls, Counter* wall_ns)
      : calls_(calls), wall_ns_(wall_ns), begin_s_(MonotonicSeconds()) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { Stop(); }

  /// Ends the measured interval early; idempotent.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    end_s_ = MonotonicSeconds();
    if (calls_ != nullptr) calls_->Increment();
    if (wall_ns_ != nullptr) {
      wall_ns_->Add(static_cast<uint64_t>((end_s_ - begin_s_) * 1e9));
    }
  }

  double begin_seconds() const { return begin_s_; }
  /// Meaningful after Stop().
  double end_seconds() const { return end_s_; }

 private:
  Counter* calls_;
  Counter* wall_ns_;
  double begin_s_;
  double end_s_ = 0.0;
  bool stopped_ = false;
};

}  // namespace obs
}  // namespace webre

#endif  // WEBRE_OBS_METRICS_H_
