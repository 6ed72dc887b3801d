#include "workloads.h"

namespace perfbench {

bool RunWorkload(const Args& args, const Tracer& tracer, PassResult& out) {
  if (args.workload == "batch_convert") {
    out = RunBatchConvert(args, tracer);
  } else if (args.workload == "serve_read") {
    out = RunServeRead(args, tracer);
  } else if (args.workload == "serve_ingest") {
    out = RunServeIngest(args, tracer);
  } else {
    return false;
  }
  return true;
}

std::string LimitsText() {
  const auto ms = [](double v) { return std::to_string(static_cast<int>(v)); };
  return "query " + ms(kLimits.query_ms) + " ms, ingest " + ms(kLimits.ingest_ms) +
         " ms, checkpoint " + ms(kLimits.checkpoint_ms) + " ms, batch " +
         ms(kLimits.batch_us_per_page) + " us per page";
}

const std::vector<std::string>& StandardHeaderKeys() {
  static const std::vector<std::string> kKeys = {
      "documents", "html_bytes", "wal_sync", "cache_bytes", "loops",
      "workers",   "offered",    "latency_limits"};
  return kKeys;
}

const std::vector<Metric>& EndToEndSchema() {
  static const std::vector<Metric> kSchema = {
      {"setup_s", 0, "s"},
      {"throughput_per_s", 0, "1/s"},
      {"latency_p50_us", 0, "us"},
      {"latency_p90_us", 0, "us"},
      {"slo_ok_frac", 0, "frac"},
      {"ok_frac", 0, "frac"},
      {"peak_rss_mb", 0, "MB"},
      {"stored_bytes_per_input_byte", 0, "ratio"},
  };
  return kSchema;
}

namespace {

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

}  // namespace

std::vector<Metric> PerLayerMetrics(const std::map<std::string, SpanStats>& spans,
                                    const LayerInputs& in, double overhead_pct) {
  static const SpanStats kNone;
  const auto span = [&](const char* name) -> const SpanStats& {
    auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  };
  // Self time per call, and mean / percentile of inclusive durations.
  const auto self_per_call = [&](const char* name) {
    const SpanStats& s = span(name);
    return Ratio(s.self_us, static_cast<double>(s.count));
  };
  const auto mean_ms = [&](const char* name) {
    return Mean(span(name).durations_us) / 1e3;
  };
  const auto pct_us = [&](const char* name, double p) {
    return Percentile(span(name).durations_us, p);
  };

  // Share of the measured interval no layer span accounts for. Batch:
  // worker-thread time inside Pipeline::Run not covered by a stage span.
  // Serving: client latency beyond send lag, queue wait and the worker's
  // execution time.
  double unaccounted = 0.0;
  if (in.served) {
    unaccounted = 1.0 - Ratio(in.send_lag_mean_us + in.queue_wait_us +
                                  in.request_us_mean,
                              in.client_mean_us);
  } else if (in.threads > 0) {
    double covered_us = 0.0;
    for (const auto& [name, s] : spans) {
      if (name != "core.run") covered_us += s.self_us;
    }
    double run_us = 0.0;
    for (double d : span("core.run").durations_us) run_us += d;
    unaccounted = 1.0 - Ratio(covered_us, run_us * in.threads);
  }

  const double queries = static_cast<double>(in.queries.queries);
  const double lookups = in.cache_hits + in.cache_misses;
  return {
      {"core.run_ms", mean_ms("core.run"), "ms"},
      {"html.parse_us_per_doc", self_per_call("html.parse"), "us"},
      {"html.tidy_us_per_doc", self_per_call("html.tidy"), "us"},
      {"restructure.tokenize_us_per_doc", self_per_call("restructure.tokenize"), "us"},
      {"concepts.instance_us_per_doc", self_per_call("concepts.instance"), "us"},
      {"restructure.group_us_per_doc", self_per_call("restructure.group"), "us"},
      {"restructure.consolidate_us_per_doc", self_per_call("restructure.consolidate"),
       "us"},
      {"restructure.tokens_per_doc", Ratio(in.tokens, in.docs_converted), "count"},
      {"concepts.identified_frac", Ratio(in.instance_identified, in.instance_tokens),
       "frac"},
      {"schema.extract_us_per_doc", self_per_call("schema.extract"), "us"},
      {"schema.discover_ms", mean_ms("schema.discover"), "ms"},
      {"schema.frequent_paths", in.frequent_paths, "count"},
      {"xml.validate_us_per_doc", self_per_call("xml.validate"), "us"},
      {"mapping.map_us_per_doc", self_per_call("mapping.map"), "us"},
      {"mapping.edit_cost_per_doc", Ratio(in.edit_cost, in.docs_mapped), "count"},
      {"repository.add_us_per_doc", self_per_call("repository.add"), "us"},
      {"repository.query_us_p50", pct_us("repository.query", 50), "us"},
      {"repository.query_us_p99", pct_us("repository.query", 99), "us"},
      {"repository.plan_summary_frac",
       Ratio(static_cast<double>(in.queries.plan_summary), queries), "frac"},
      {"repository.plan_sweep_frac",
       Ratio(static_cast<double>(in.queries.plan_sweep), queries), "frac"},
      {"repository.plan_seeded_frac",
       Ratio(static_cast<double>(in.queries.plan_seeded), queries), "frac"},
      {"repository.plan_scan_frac",
       Ratio(static_cast<double>(in.queries.plan_scan), queries), "frac"},
      {"repository.predicate_bytes_per_query",
       Ratio(static_cast<double>(in.queries.predicate_bytes_scanned), queries), "bytes"},
      {"repository.matches_per_query",
       Ratio(static_cast<double>(in.queries.matches), queries), "count"},
      {"storage.durable_add_us_per_doc", self_per_call("storage.durable_add"), "us"},
      {"storage.checkpoint_ms", mean_ms("storage.checkpoint"), "ms"},
      {"storage.open_ms", mean_ms("storage.open"), "ms"},
      {"storage.wal_bytes_per_input_byte", Ratio(in.wal_bytes, in.wal_input_bytes),
       "ratio"},
      {"storage.snapshot_bytes", in.snapshot_bytes, "bytes"},
      {"serve.request_us_mean", in.request_us_mean, "us"},
      {"serve.outside_worker_us",
       in.served ? in.client_mean_us - in.request_us_mean : 0.0, "us"},
      {"serve.cache_hit_rate", Ratio(in.cache_hits, lookups), "frac"},
      {"serve.cache_lookup_us", in.cache_lookup_us, "us"},
      {"serve.queue_wait_us", in.queue_wait_us, "us"},
      {"serve.max_queue_depth", in.max_queue_depth, "count"},
      {"serve.shed_frac", Ratio(in.shed, in.requests), "frac"},
      {"serve.cache_evictions", in.cache_evictions, "count"},
      {"serve.wakeups_per_completion", Ratio(in.wakeups, in.completions), "ratio"},
      {"driver.send_lag_us_p99", in.send_lag_p99_us, "us"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.unaccounted_frac", unaccounted, "frac"},
  };
}

}  // namespace perfbench
