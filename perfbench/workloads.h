// The three workloads and the metric sets they report.
//
//   batch_convert  closed batch: Pipeline::Run over seeded resume pages
//                  (convert, discover, DTD, validate, map) on nproc
//                  threads, repeated for the run's seconds.
//   serve_read     open-loop Poisson queries, Zipf-skewed over a query
//                  set whose answers overflow the result cache, against
//                  a server on a repository opened from a snapshot.
//   serve_ingest   open-loop mix of ingests of fresh pages, queries and
//                  periodic checkpoints against a durable repository in
//                  a fresh directory, then recovery by Open.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Offered load and latency limits (also printed in every header).
struct Limits {
  double query_ms = 10.0;
  double ingest_ms = 50.0;
  double checkpoint_ms = 1000.0;
  /// Per page of a batch.
  double batch_us_per_page = 420.0;
};
inline constexpr Limits kLimits;
std::string LimitsText();

/// Header keys every output carries; main fills "n/a" for any key a
/// workload does not set.
const std::vector<std::string>& StandardHeaderKeys();

PassResult RunBatchConvert(const Args& args, const Tracer& tracer);
PassResult RunServeRead(const Args& args, const Tracer& tracer);
PassResult RunServeIngest(const Args& args, const Tracer& tracer);

/// Runs the named workload; false when the name is unknown.
bool RunWorkload(const Args& args, const Tracer& tracer, PassResult& out);

/// Names and units of the end-to-end metrics, in output order.
const std::vector<Metric>& EndToEndSchema();

/// The per-layer metric set, every name present whatever the workload
/// (layers a workload does not use report 0). `overhead_pct` is the
/// tracing overhead measured by the caller.
std::vector<Metric> PerLayerMetrics(const std::map<std::string, SpanStats>& spans,
                                    const LayerInputs& in, double overhead_pct);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
