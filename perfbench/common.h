// Shared pieces of the end-to-end benchmark: command-line arguments,
// metric records, order statistics, digests, and the span recorder the
// traced run uses to time calls into each layer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "restructure/converter.h"
#include "serve/frame.h"

namespace perfbench {

/// Parsed command line (see run.py for the full usage).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every corpus and rate so a run finishes in about a second.
  /// Set only by the benchmark's own tests; no command-line flag sets it.
  bool tiny = false;
  /// Scratch directory for repositories, relative to the working
  /// directory; removed when the run ends.
  std::string work_dir = ".bench_work";
};

/// One named, unit-carrying number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts a workload gathers for the per-layer metrics besides its spans.
/// Everything stays 0 for a layer the workload does not use.
struct LayerInputs {
  // Conversion (summed over converted documents).
  double docs_converted = 0;
  double tokens = 0;
  double instance_tokens = 0;
  double instance_identified = 0;
  double frequent_paths = 0;
  double edit_cost = 0;
  double docs_mapped = 0;
  /// Batch worker threads (for the unaccounted share of batch time).
  double threads = 0;
  // Repository: query counters over the load window (the miss stream).
  webre::obs::QueryStatsView queries;
  // Storage.
  double wal_bytes = 0;
  double wal_input_bytes = 0;
  double snapshot_bytes = 0;
  // Serving and the load generator.
  bool served = false;
  double client_mean_us = 0;
  double request_us_mean = 0;
  double queue_wait_us = 0;
  double send_lag_mean_us = 0;
  double send_lag_p99_us = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double cache_lookup_us = 0;
  double max_queue_depth = 0;
  double requests = 0;
  double shed = 0;
  double wakeups = 0;
  double completions = 0;
};

/// What one workload pass produced. `end_to_end` holds the bounded
/// metrics every workload reports (BENCHMARK.json "end_to_end");
/// `detail` holds the workload-specific user-visible figures, printed
/// but not part of the result line; `layers` holds raw per-layer inputs
/// that PerLayerMetrics turns into the "per_layer" set.
struct PassResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> header;
  LayerInputs layers;
  /// Mean client-visible cost of one operation, used to compare the
  /// traced pass with the untraced one (tracing overhead).
  double mean_op_us = 0.0;

  void Fail(std::string what) {
    correct = false;
    check_failures.push_back(std::move(what));
  }
};

// ---- order statistics ------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// The smallest value with at least p% of the samples at or below it.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Splits `n` operations, in schedule order, into kSlices equal runs and
/// returns the median over the runs of `stat(begin, end)`. A burst of
/// host contention then moves a few slices, not the reported figure.
inline constexpr size_t kSlices = 10;
double SliceMedian(size_t n, const std::function<double(size_t, size_t)>& stat);

// ---- digests -----------------------------------------------------------

/// FNV-1a, chained through `h`.
uint64_t Fnv(std::string_view bytes, uint64_t h = 1469598103934665603ull);
uint64_t FnvU64(uint64_t value, uint64_t h);

/// Digest of a query answer as the wire carries it: total count plus
/// every returned (doc, pos, name, val).
uint64_t AnswerDigest(uint64_t total_matches,
                      const std::vector<webre::serve::WireMatch>& matches);

/// Digest of an XML tree: element names, attributes and text in
/// document order.
uint64_t TreeDigest(const webre::Node& root, uint64_t h);

// ---- spans -----------------------------------------------------------

/// Records spans around the benchmark's calls into the library when a
/// trace collector is attached; does nothing otherwise, so the untraced
/// pass pays one branch per call.
class Tracer {
 public:
  explicit Tracer(webre::obs::TraceCollector* collector)
      : collector_(collector) {}
  bool on() const { return collector_ != nullptr; }
  webre::obs::TraceCollector* collector() const { return collector_; }
  void Add(const std::string& name, double begin_s, double end_s) const {
    if (collector_ != nullptr) collector_->AddSpan(name, "layer", begin_s, end_s);
  }
  /// Emits the converter's recorded stage spans under layer names.
  void AddConvertStages(const webre::ConvertStats& stats) const;

 private:
  webre::obs::TraceCollector* collector_;
};

/// RAII span: times the enclosing scope as `name` on this thread's lane.
class Span {
 public:
  Span(const Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name),
        begin_s_(tracer.on() ? webre::obs::MonotonicSeconds() : 0.0) {}
  ~Span() {
    if (tracer_.on()) {
      tracer_.Add(name_, begin_s_, webre::obs::MonotonicSeconds());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const Tracer& tracer_;
  const char* name_;
  double begin_s_;
};

/// Layer-qualified span name for a converter/pipeline stage span
/// ("parse" -> "html.parse", "instance" -> "concepts.instance", ...).
std::string LayerSpanName(std::string_view stage_name);

/// Per-span-name aggregate of a trace, keyed by LayerSpanName so the
/// pipeline's own stage spans join the benchmark's: call count, summed self time
/// (duration minus the part covered by child spans on the same lane)
/// and every inclusive duration.
struct SpanStats {
  uint64_t count = 0;
  double self_us = 0.0;
  std::vector<double> durations_us;
};
std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<webre::obs::TraceEvent>& events);

// ---- process facts -----------------------------------------------------

double PeakRssMb();
/// Size of one file; 0 when it does not exist.
uint64_t FileBytes(const std::string& path);
/// Total bytes of regular files directly inside `dir`.
uint64_t DirectoryBytes(const std::string& dir);
/// Removes `path` recursively, ignoring errors.
void RemoveTree(const std::string& path);
/// Empties `path`, creating it (and its parents) when missing.
void FreshDirectory(const std::string& path);
/// Hardware threads (>= 1).
size_t Nproc();
/// Threads the benchmark's CPU-bound work runs on: half the hardware
/// threads (>= 1), so the load driver, the server's own threads and other
/// tenants of the host take less time from the measured work.
size_t WorkThreads();

/// Cumulative CPU ticks of the whole machine (/proc/stat): all states,
/// and steal, the time the hypervisor ran something else. Zeros when
/// unreadable.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
CpuTicks ReadCpuTicks();
/// Share of the machine's CPU time stolen between two readings.
double StealFrac(const CpuTicks& begin, const CpuTicks& end);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
