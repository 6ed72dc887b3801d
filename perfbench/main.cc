// webre_bench: one workload of the end-to-end benchmark per invocation.
//
//   webre_bench --workload <batch_convert|serve_read|serve_ingest>
//               --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload once, untraced, and reports the
// end-to-end metrics. --trace 1 runs it untraced and then traced: the
// traced pass records a span around each call the benchmark makes into
// a layer, writes them as a Chrome trace, and reports the per-layer
// metrics plus the tracing overhead (traced vs untraced mean cost of
// one operation). Human-readable lines come first; the last line of
// stdout is the JSON result. Exit status 1 when a correctness check
// failed, 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

// glibc raises its mmap threshold each time a large mmapped block is
// freed, so whether a later large buffer (a checkpoint's snapshot image,
// a grown corpus) lands in the heap, and stays resident after free,
// depends on allocation history and thread timing, and peak_rss_mb with
// it. A fixed threshold turns that off; blocks above it are mapped,
// grown with mremap and unmapped on free.
constexpr int kMmapThresholdBytes = 1 << 20;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void PrintHeader(const Args& args, const PassResult& pass) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::string line = "header {";
  const auto kv = [&](const std::string& k, const std::string& v) {
    if (line.back() != '{') line += ", ";
    line += Quote(k) + ": " + Quote(v);
  };
  kv("date", UtcNow());
  kv("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  kv("build_type", PERFBENCH_BUILD_TYPE);
  kv("cxx_flags", PERFBENCH_CXX_FLAGS);
  kv("nproc", std::to_string(Nproc()));
  kv("malloc_mmap_threshold", std::to_string(kMmapThresholdBytes));
  kv("workload", args.workload);
  kv("seed", std::to_string(args.seed));
  kv("seconds", Number(args.seconds));
  kv("trace", args.trace ? "1" : "0");
  for (const std::string& key : StandardHeaderKeys()) {
    std::string value = "n/a";
    for (const auto& [k, v] : pass.header) {
      if (k == key) value = v;
    }
    kv(key, value);
  }
  for (const auto& [k, v] : pass.header) {
    const auto& keys = StandardHeaderKeys();
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) kv(k, v);
  }
  std::printf("%s}\n", line.c_str());
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-40s %18.4f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += Quote(metrics[i].name) + ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

bool ReportChecks(const PassResult& pass) {
  for (const std::string& failure : pass.check_failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  return pass.correct;
}

// Puts the end-to-end metrics in schema order; false if one is missing.
bool OrderEndToEnd(PassResult& pass) {
  std::vector<Metric> ordered;
  for (const Metric& want : EndToEndSchema()) {
    bool found = false;
    for (const Metric& m : pass.end_to_end) {
      if (m.name == want.name && m.unit == want.unit) {
        ordered.push_back(m);
        found = true;
      }
    }
    if (!found) return false;
  }
  pass.end_to_end = std::move(ordered);
  return true;
}

int Main(int argc, char** argv) {
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: webre_bench --workload <batch_convert|serve_read|"
                 "serve_ingest> --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  FreshDirectory(args.work_dir);

  PassResult pass;
  if (!RunWorkload(args, Tracer(nullptr), pass)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (!OrderEndToEnd(pass)) pass.Fail("an end-to-end metric is missing");
  PrintHeader(args, pass);
  PrintMetrics("end_to_end", pass.end_to_end);
  PrintMetrics("detail", pass.detail);
  bool correct = ReportChecks(pass);

  if (!args.trace) {
    RemoveTree(args.work_dir);
    PrintResultLine(correct, pass.attempted, pass.failed, pass.end_to_end);
    return correct ? 0 : 1;
  }

  webre::obs::TraceCollector collector;
  PassResult traced;
  RunWorkload(args, Tracer(&collector), traced);
  RemoveTree(args.work_dir);
  correct = ReportChecks(traced) && correct;
  const double overhead_pct =
      pass.mean_op_us > 0 ? (traced.mean_op_us / pass.mean_op_us - 1.0) * 100.0 : 0.0;
  const auto spans = AggregateSpans(collector.Events());
  const std::vector<Metric> layers = PerLayerMetrics(spans, traced.layers, overhead_pct);

  // The Chrome trace stays after the run, next to the scratch directory.
  const std::string out_dir = ".bench_out";
  std::filesystem::create_directories(out_dir);
  const std::string trace_path = out_dir + "/trace-" + args.workload + "-" +
                                 std::to_string(args.seed) + ".json";
  std::ofstream(trace_path) << collector.ToJson();
  std::printf("trace %s (%zu spans)\n", trace_path.c_str(), collector.event_count());
  std::printf("%-28s %10s %14s %14s\n", "span", "count", "self_ms", "self_us_mean");
  for (const auto& [name, s] : spans) {
    std::printf("%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.self_us / 1e3,
                s.count > 0 ? s.self_us / static_cast<double>(s.count) : 0.0);
  }
  PrintMetrics("traced_end_to_end", traced.end_to_end);
  PrintMetrics("per_layer", layers);
  PrintResultLine(correct, pass.attempted + traced.attempted,
                  pass.failed + traced.failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
