// serve_read and serve_ingest: open-loop traffic over the socket.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus.h"
#include "load.h"
#include "repository/repository.h"
#include "restructure/recognizer.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "storage/durable_repository.h"
#include "storage/snapshot.h"
#include "util/thread_pool.h"
#include "workloads.h"
#include "xml/name_table.h"

namespace perfbench {
namespace {

using webre::serve::MsgType;

// Offered load: half the highest rate this driver measured served with
// no shed request on a 4-core host over a 20-second run (serve_read
// 2000 query/s, shedding from 2500; serve_ingest 1000 req/s, shedding
// 14% at 1500). serve_read's query set is large enough that its encoded
// answers overflow the default 8 MiB result cache; the Zipf head fits.
constexpr double kReadRate = 1000.0;
constexpr double kIngestRate = 500.0;
constexpr double kIngestFraction = 0.3;
// A 20-second serve_ingest run schedules about 10000 requests (sd 100):
// every 730th is the 13th checkpoint at 9490, and a 14th would need
// 10220 arrivals, so every seed stalls writers the same number of times.
constexpr size_t kCheckpointEvery = 730;
constexpr double kZipfS = 0.8;
constexpr int kSetupRepeats = 5;
constexpr size_t kProbeQueries = 64;

struct Sizes {
  size_t read_docs;
  size_t queries;
  size_t reference_docs;
  double read_rate;
  double ingest_rate;
};

Sizes SizesFor(const Args& args) {
  if (args.tiny) return {200, 400, 60, 200.0, 100.0};
  return {4000, 20000, 300, kReadRate, kIngestRate};
}

// Concept set, recognizer and converter, address-stable for the server.
struct Domain {
  explicit Domain(bool record_spans)
      : converter(&concepts, &recognizer, &constraints, Options(record_spans)) {}
  static webre::ConvertOptions Options(bool record_spans) {
    webre::ConvertOptions options;
    options.record_stage_spans = record_spans;
    return options;
  }
  webre::ConceptSet concepts = webre::ResumeConcepts();
  webre::ConstraintSet constraints = webre::ResumeConstraints();
  webre::SynonymRecognizer recognizer{&concepts};
  webre::DocumentConverter converter;
};

// Converts pages on `pool`; null entries for failures.
std::vector<std::unique_ptr<webre::Node>> ConvertAll(
    const Domain& domain, const std::vector<std::string>& html,
    webre::ThreadPool& pool, const Tracer& tracer, LayerInputs& in) {
  std::vector<std::unique_ptr<webre::Node>> trees(html.size());
  std::vector<webre::ConvertStats> stats(html.size());
  webre::ParallelFor(pool, html.size(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto tree = domain.converter.TryConvert(html[i], &stats[i]);
      tracer.AddConvertStages(stats[i]);
      if (tree.ok()) trees[i] = std::move(tree).value();
    }
  });
  for (size_t i = 0; i < html.size(); ++i) {
    if (trees[i] == nullptr) continue;
    in.docs_converted += 1;
    in.tokens += static_cast<double>(stats[i].tokens_created);
    in.instance_tokens += static_cast<double>(stats[i].instance.tokens_total);
    in.instance_identified += static_cast<double>(stats[i].instance.tokens_identified);
  }
  return trees;
}

// The answer the server must give for `query`, computed in process.
uint64_t ExpectedDigest(const webre::XmlRepository& repo, const std::string& query,
                        const Tracer& tracer) {
  webre::StatusOr<std::vector<webre::QueryMatch>> matches = [&] {
    Span span(tracer, "repository.query");
    return repo.Query(query);
  }();
  if (!matches.ok()) return 0;
  const size_t max_results = webre::serve::ServeOptions{}.max_results;
  std::vector<webre::serve::WireMatch> wire;
  const webre::NameTable& names = webre::NameTable::Global();
  for (size_t i = 0; i < matches->size() && i < max_results; ++i) {
    const webre::QueryMatch& m = (*matches)[i];
    wire.push_back({m.doc, m.pos, std::string(names.NameOf(m.name())),
                    std::string(m.val())});
  }
  return AnswerDigest(matches->size(), wire);
}

// Server options shared by both workloads; in the traced pass the
// before_execute seam stamps when a worker picks each request up.
webre::serve::ServeOptions ServerOptions(std::vector<double>* exec_start) {
  webre::serve::ServeOptions options;
  if (exec_start != nullptr) {
    options.before_execute = [exec_start](const webre::serve::Request& r) {
      if (r.id >= 1 && r.id <= exec_start->size()) {
        (*exec_start)[r.id - 1] = webre::obs::MonotonicSeconds();
      }
    };
  }
  return options;
}

double LimitUs(MsgType type) {
  switch (type) {
    case MsgType::kIngest:
      return kLimits.ingest_ms * 1e3;
    case MsgType::kCheckpoint:
      return kLimits.checkpoint_ms * 1e3;
    default:
      return kLimits.query_ms * 1e3;
  }
}

// Latency, SLO, failure and serving-layer figures of one load window.
void SummarizeLoad(const std::vector<PlannedRequest>& schedule,
                   const std::vector<Outcome>& outcomes,
                   const webre::serve::ServerStats& stats,
                   const std::vector<double>& exec_start, const Args& args,
                   PassResult& out) {
  std::map<MsgType, std::vector<double>> by_type;
  std::vector<double> lag;
  std::vector<double> client;
  double within = 0;
  double ok = 0;
  double queue_wait = 0;
  double queue_wait_n = 0;
  double last_done_s = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.sent_s > 0) lag.push_back((o.sent_s - o.scheduled_s) * 1e6);
    if (!o.ok()) continue;
    ++ok;
    last_done_s = std::max(last_done_s, o.done_s);
    const double us = o.latency_us();
    if (us <= LimitUs(schedule[i].type)) ++within;
    by_type[schedule[i].type].push_back(us);
    client.push_back(us);
    if (!exec_start.empty() && exec_start[i] > 0) {
      queue_wait += (exec_start[i] - o.sent_s) * 1e6;
      ++queue_wait_n;
    }
  }
  const double attempted = static_cast<double>(schedule.size());
  // Served rate over the window from the first scheduled send to the last
  // answer: a server that falls behind the offered rate stretches the
  // window and reads lower, where ok / seconds would only echo the schedule.
  const double window_s =
      ok > 0 ? last_done_s - outcomes.front().scheduled_s : args.seconds;
  out.attempted += schedule.size();
  out.failed += schedule.size() - static_cast<size_t>(ok);
  out.mean_op_us = Mean(client);
  // Latency and SLO per slice of the schedule; failed requests count as
  // missing the limit.
  const auto slice_pct = [&](double p) {
    return [&, p](size_t b, size_t e) {
      std::vector<double> us;
      for (size_t i = b; i < e; ++i) {
        if (outcomes[i].ok()) us.push_back(outcomes[i].latency_us());
      }
      return Percentile(std::move(us), p);
    };
  };
  const auto slice_slo = [&](size_t b, size_t e) {
    double within_limit = 0;
    for (size_t i = b; i < e; ++i) {
      within_limit += outcomes[i].ok() &&
                      outcomes[i].latency_us() <= LimitUs(schedule[i].type);
    }
    return within_limit / static_cast<double>(e - b);
  };
  out.end_to_end = {
      {"throughput_per_s", ok / window_s, "1/s"},
      {"latency_p50_us", SliceMedian(schedule.size(), slice_pct(50)), "us"},
      {"latency_p90_us", SliceMedian(schedule.size(), slice_pct(90)), "us"},
      {"slo_ok_frac", SliceMedian(schedule.size(), slice_slo), "frac"},
  };
  out.detail.push_back({"run_p50_us", Percentile(client, 50), "us"});
  out.detail.push_back({"run_p90_us", Percentile(client, 90), "us"});
  out.detail.push_back({"run_slo_ok_frac", within / attempted, "frac"});
  const std::pair<MsgType, const char*> kTypes[] = {
      {MsgType::kQuery, "query"},
      {MsgType::kIngest, "ingest"},
      {MsgType::kCheckpoint, "checkpoint"}};
  for (const auto& [type, name] : kTypes) {
    auto it = by_type.find(type);
    if (it == by_type.end()) continue;
    const std::string prefix(name);
    out.detail.push_back({prefix + "_p50_us", Percentile(it->second, 50), "us"});
    out.detail.push_back({prefix + "_p90_us", Percentile(it->second, 90), "us"});
    out.detail.push_back({prefix + "_p99_us", Percentile(it->second, 99), "us"});
    out.detail.push_back({prefix + "_count", static_cast<double>(it->second.size()), "count"});
  }
  out.detail.push_back({"offered_per_s", attempted / args.seconds, "1/s"});
  out.detail.push_back({"served_window_s", window_s, "s"});
  out.detail.push_back({"failed_frac", 1.0 - ok / attempted, "frac"});

  LayerInputs& in = out.layers;
  const webre::obs::ServeStatsView& view = stats.view;
  in.served = true;
  in.client_mean_us = Mean(client);
  in.request_us_mean = view.request_us.mean();
  in.queue_wait_us = queue_wait_n > 0 ? queue_wait / queue_wait_n : 0.0;
  in.send_lag_mean_us = Mean(lag);
  in.send_lag_p99_us = Percentile(lag, 99);
  in.cache_hits = static_cast<double>(view.cache_hits);
  in.cache_misses = static_cast<double>(view.cache_misses);
  in.cache_evictions = static_cast<double>(view.cache_evictions);
  in.max_queue_depth = static_cast<double>(view.max_queue_depth);
  in.requests = static_cast<double>(view.requests);
  in.shed = static_cast<double>(view.shed_requests);
  in.wakeups = static_cast<double>(view.wakeups);
  for (const webre::serve::LoopStats& loop : stats.loops) {
    in.completions += static_cast<double>(loop.completions);
  }
}

webre::obs::QueryStatsView Minus(webre::obs::QueryStatsView a,
                                 const webre::obs::QueryStatsView& b) {
  a.queries -= b.queries;
  a.matches -= b.matches;
  a.predicate_bytes_scanned -= b.predicate_bytes_scanned;
  a.plan_summary -= b.plan_summary;
  a.plan_sweep -= b.plan_sweep;
  a.plan_seeded -= b.plan_seeded;
  a.plan_scan -= b.plan_scan;
  return a;
}

void AddServeHeader(PassResult& out, double rate, size_t connections) {
  const webre::serve::ServeOptions defaults;
  out.header.push_back(
      {"offered", "open loop, Poisson " + std::to_string(static_cast<int>(rate)) + "/s"});
  out.header.push_back({"connections", std::to_string(connections)});
  out.header.push_back({"loops", std::to_string(webre::serve::ResolveLoops(0))});
  out.header.push_back({"workers", std::to_string(defaults.worker_threads) +
                                       " server workers, repository query threads " +
                                       std::to_string(Nproc()) + ", set-up threads " +
                                       std::to_string(WorkThreads())});
  out.header.push_back({"cache_bytes", std::to_string(defaults.cache_bytes)});
  out.header.push_back({"max_in_flight", std::to_string(defaults.max_in_flight)});
  out.header.push_back({"latency_limits", LimitsText()});
}

}  // namespace

PassResult RunServeRead(const Args& args, const Tracer& tracer) {
  PassResult out;
  const Sizes sizes = SizesFor(args);
  const size_t connections = std::max<size_t>(1, Nproc() / 2);
  webre::ThreadPool pool(WorkThreads());
  const Domain domain(tracer.on());
  const std::string dir = args.work_dir + "/serve_read";

  std::vector<double> setup_s;
  std::vector<std::string> queries;
  std::vector<PlannedRequest> schedule;
  std::vector<double> exec_start;
  std::unique_ptr<webre::storage::DurableRepository> durable;
  std::unique_ptr<webre::serve::Server> server;
  Corpus corpus;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    durable.reset();
    FreshDirectory(dir);
    const double t0 = webre::obs::MonotonicSeconds();
    corpus = MakeCorpus(args.seed, 0, sizes.read_docs, false, pool);
    std::vector<std::unique_ptr<webre::Node>> trees =
        ConvertAll(domain, corpus.html, pool, tracer, out.layers);
    PathCounts paths;
    for (const auto& tree : trees) {
      if (tree != nullptr) CountPaths(*tree, paths);
    }
    queries = MakeQueries(paths, sizes.queries, args.seed);
    {
      webre::XmlRepository repo;
      for (auto& tree : trees) {
        if (tree == nullptr) continue;
        Span span(tracer, "repository.add");
        if (!repo.Add(std::move(tree)).ok()) out.Fail("setup: Add refused a page");
      }
      const double c0 = webre::obs::MonotonicSeconds();
      const std::string image = webre::storage::BuildSnapshotImage(repo);
      const bool written = webre::storage::WriteSnapshotFile(dir, image).ok();
      tracer.Add("storage.checkpoint", c0, webre::obs::MonotonicSeconds());
      out.layers.snapshot_bytes = static_cast<double>(image.size());
      if (!written) {
        out.Fail("setup: cannot write the snapshot");
        return out;
      }
    }
    {
      Span span(tracer, "storage.open");
      auto opened = webre::storage::DurableRepository::Open(dir);
      if (!opened.ok()) {
        out.Fail("setup: " + opened.status().ToString());
        return out;
      }
      durable = std::move(opened).value();
    }
    ScheduleOptions plan;
    plan.rate_per_s = sizes.read_rate;
    plan.seconds = args.seconds;
    plan.query_count = queries.size();
    plan.zipf_s = kZipfS;
    schedule = MakeSchedule(plan, args.seed);
    exec_start.assign(tracer.on() ? schedule.size() : 0, 0.0);
    webre::serve::ServeContext context;
    context.repo = &durable->repo();
    server = std::make_unique<webre::serve::Server>(
        context, ServerOptions(tracer.on() ? &exec_start : nullptr));
    if (!server->Start().ok()) {
      out.Fail("setup: server did not start");
      return out;
    }
    setup_s.push_back(webre::obs::MonotonicSeconds() - t0);
  }

  const webre::XmlRepository& repo = durable->repo();
  const webre::obs::QueryStatsView before = repo.query_stats();
  DriveOptions drive;
  drive.port = server->port();
  drive.connections = connections;
  drive.abort = [&] { server->Stop(); };
  drive.trace = tracer.collector();
  const CpuTicks ticks_before = ReadCpuTicks();
  const std::vector<Outcome> outcomes =
      Drive(schedule, drive, [&](const PlannedRequest& r) -> const std::string& {
        return queries[r.item];
      });
  const webre::serve::ServerStats stats = server->stats();
  out.detail.push_back({"host_steal_frac", StealFrac(ticks_before, ReadCpuTicks()), "frac"});
  // Peak memory of serving: set-up and load, not the checks after it.
  const double peak_rss_mb = PeakRssMb();
  server->Stop();
  out.layers.queries = Minus(repo.query_stats(), before);
  SummarizeLoad(schedule, outcomes, stats, exec_start, args, out);

  // Every answer to a query must equal the in-process answer.
  std::map<uint32_t, uint64_t> seen;  // query -> digest first received
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    auto [it, fresh] = seen.emplace(schedule[i].item, outcomes[i].digest);
    if (!fresh && it->second != outcomes[i].digest) {
      out.Fail("query " + queries[schedule[i].item] + ": answers disagree");
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> distinct(seen.begin(), seen.end());
  std::vector<uint64_t> expected(distinct.size());
  webre::ParallelFor(pool, distinct.size(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      expected[i] = ExpectedDigest(repo, queries[distinct[i].first], tracer);
    }
  });
  size_t wrong = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (expected[i] != distinct[i].second) ++wrong;
  }
  if (wrong > 0) {
    out.Fail(std::to_string(wrong) + " of " + std::to_string(distinct.size()) +
             " distinct queries answered differently from XmlRepository::Query");
    out.failed += wrong;
  }

  if (tracer.on()) {
    // CachedQueryBody on hits: a private cache, warmed by one miss.
    const webre::serve::ServeOptions defaults;
    webre::serve::QueryCache cache(defaults.cache_bytes);
    std::vector<double> hit_us;
    for (size_t i = 0; i < std::min<size_t>(200, queries.size()); ++i) {
      (void)webre::serve::CachedQueryBody(repo, cache, queries[i], defaults.max_results);
      const double t0 = webre::obs::MonotonicSeconds();
      (void)webre::serve::CachedQueryBody(repo, cache, queries[i], defaults.max_results);
      const double t1 = webre::obs::MonotonicSeconds();
      tracer.Add("serve.cache_lookup", t0, t1);
      hit_us.push_back((t1 - t0) * 1e6);
    }
    out.layers.cache_lookup_us = Mean(hit_us);
  }

  out.end_to_end.insert(out.end_to_end.begin(), {"setup_s", Median(setup_s), "s"});
  out.end_to_end.push_back(
      {"ok_frac", 1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "frac"});
  out.end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out.end_to_end.push_back(
      {"stored_bytes_per_input_byte",
       out.layers.snapshot_bytes / static_cast<double>(corpus.html_bytes), "ratio"});
  out.detail.push_back({"distinct_queries_sent", static_cast<double>(distinct.size()), "count"});
  out.detail.push_back({"cache_hit_rate",
                        out.layers.cache_hits /
                            std::max(1.0, out.layers.cache_hits + out.layers.cache_misses),
                        "frac"});
  out.header.push_back({"documents", std::to_string(sizes.read_docs)});
  out.header.push_back({"html_bytes", std::to_string(corpus.html_bytes)});
  out.header.push_back({"query_set", std::to_string(queries.size())});
  out.header.push_back({"zipf_s", std::to_string(kZipfS)});
  out.header.push_back({"wal_sync", "none"});
  AddServeHeader(out, sizes.read_rate, connections);
  server.reset();
  durable.reset();
  RemoveTree(dir);
  return out;
}

PassResult RunServeIngest(const Args& args, const Tracer& tracer) {
  PassResult out;
  const Sizes sizes = SizesFor(args);
  const size_t connections = std::max<size_t>(1, Nproc() / 2);
  webre::ThreadPool pool(WorkThreads());
  const Domain domain(tracer.on());
  const std::string dir = args.work_dir + "/serve_ingest";
  webre::storage::DurableOptions durable_options;  // WAL sync: none

  std::vector<double> setup_s;
  std::vector<std::string> queries;
  std::vector<PlannedRequest> schedule;
  std::vector<double> exec_start;
  std::unique_ptr<webre::storage::DurableRepository> durable;
  std::unique_ptr<webre::serve::Server> server;
  Corpus ingest;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    durable.reset();
    FreshDirectory(dir);
    const double t0 = webre::obs::MonotonicSeconds();
    // Queries come from the label paths of a converted reference sample;
    // ingests are later pages of the same corpus, each sent once.
    const Corpus reference =
        MakeCorpus(args.seed, 0, sizes.reference_docs, false, pool);
    LayerInputs scratch;  // reference conversion is not ingest work
    PathCounts paths;
    for (const auto& tree :
         ConvertAll(domain, reference.html, pool, Tracer(nullptr), scratch)) {
      if (tree != nullptr) CountPaths(*tree, paths);
    }
    queries = MakeQueries(paths, sizes.queries, args.seed);
    ScheduleOptions plan;
    plan.rate_per_s = sizes.ingest_rate;
    plan.seconds = args.seconds;
    plan.ingest_fraction = kIngestFraction;
    plan.checkpoint_every = kCheckpointEvery;
    plan.query_count = queries.size();
    plan.zipf_s = kZipfS;
    schedule = MakeSchedule(plan, args.seed);
    size_t ingests = 0;
    for (const PlannedRequest& r : schedule) ingests += r.type == MsgType::kIngest;
    ingest = MakeCorpus(args.seed, sizes.reference_docs, ingests, false, pool);
    auto opened = webre::storage::DurableRepository::Open(dir, durable_options);
    if (!opened.ok()) {
      out.Fail("setup: " + opened.status().ToString());
      return out;
    }
    durable = std::move(opened).value();
    exec_start.assign(tracer.on() ? schedule.size() : 0, 0.0);
    webre::serve::ServeContext context;
    context.repo = &durable->repo();
    context.durable = durable.get();
    context.converter = &domain.converter;
    server = std::make_unique<webre::serve::Server>(
        context, ServerOptions(tracer.on() ? &exec_start : nullptr));
    if (!server->Start().ok()) {
      out.Fail("setup: server did not start");
      return out;
    }
    setup_s.push_back(webre::obs::MonotonicSeconds() - t0);
  }

  const webre::obs::QueryStatsView before = durable->repo().query_stats();
  DriveOptions drive;
  drive.port = server->port();
  drive.connections = connections;
  drive.abort = [&] { server->Stop(); };
  drive.trace = tracer.collector();
  const CpuTicks ticks_before = ReadCpuTicks();
  const std::vector<Outcome> outcomes =
      Drive(schedule, drive, [&](const PlannedRequest& r) -> const std::string& {
        return r.type == MsgType::kIngest ? ingest.html[r.item] : queries[r.item];
      });
  const webre::serve::ServerStats stats = server->stats();
  out.detail.push_back({"host_steal_frac", StealFrac(ticks_before, ReadCpuTicks()), "frac"});
  // Peak memory of serving: set-up and load, not the checks after it.
  const double peak_rss_mb = PeakRssMb();
  server->Stop();
  out.layers.queries = Minus(durable->repo().query_stats(), before);
  SummarizeLoad(schedule, outcomes, stats, exec_start, args, out);

  // Quiescent state: acknowledged ids and the probe answers.
  std::vector<uint64_t> acked;
  double admitted_bytes = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].type != MsgType::kIngest || !outcomes[i].ok()) continue;
    acked.push_back(outcomes[i].doc_id);
    admitted_bytes += static_cast<double>(ingest.html[schedule[i].item].size());
  }
  std::vector<uint64_t> sorted = acked;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    out.Fail("two ingests were acknowledged with the same doc_id");
  }
  const size_t probes = std::min(kProbeQueries, queries.size());
  std::vector<uint64_t> live(probes);
  for (size_t i = 0; i < probes; ++i) {
    live[i] = ExpectedDigest(durable->repo(), queries[i], tracer);
  }
  const double stored_bytes = static_cast<double>(DirectoryBytes(dir));
  out.layers.snapshot_bytes =
      static_cast<double>(FileBytes(dir + "/snapshot.webre"));
  server.reset();
  durable.reset();

  // Recovery: Open the directory the run left behind.
  std::vector<double> open_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    durable.reset();
    const double t0 = webre::obs::MonotonicSeconds();
    auto opened = [&] {
      Span span(tracer, "storage.open");
      return webre::storage::DurableRepository::Open(dir, durable_options);
    }();
    open_s.push_back(webre::obs::MonotonicSeconds() - t0);
    if (!opened.ok()) {
      out.Fail("recovery: " + opened.status().ToString());
      return out;
    }
    durable = std::move(opened).value();
  }
  const webre::XmlRepository& recovered = durable->repo();
  size_t missing = 0;
  for (uint64_t id : acked) {
    if (id >= recovered.size() || recovered.flat_document(id) == nullptr) ++missing;
  }
  if (missing > 0) {
    out.Fail(std::to_string(missing) + " acknowledged documents missing after Open");
    out.failed += missing;
  }
  for (size_t i = 0; i < probes; ++i) {
    if (ExpectedDigest(recovered, queries[i], tracer) != live[i]) {
      out.Fail("probe " + queries[i] + " answers differently after Open");
      ++out.failed;
    }
  }
  durable.reset();

  if (tracer.on()) {
    // The ingest path's layers, called one by one from here on the
    // admitted pages: convert, repository Add, durable Add (freeze + WAL
    // append), checkpoint, open.
    const std::string replay_dir = args.work_dir + "/serve_ingest_replay";
    FreshDirectory(replay_dir);
    auto replay = webre::storage::DurableRepository::Open(replay_dir, durable_options);
    if (replay.ok()) {
      webre::XmlRepository repo;
      double input_bytes = 0;
      for (size_t i = 0; i < ingest.html.size() && i < 400; ++i) {
        const std::vector<std::string> page = {ingest.html[i]};
        std::vector<std::unique_ptr<webre::Node>> one =
            ConvertAll(domain, page, pool, tracer, out.layers);
        if (one[0] == nullptr) continue;
        input_bytes += static_cast<double>(ingest.html[i].size());
        {
          Span span(tracer, "repository.add");
          (void)repo.Add(one[0]->Clone());
        }
        Span span(tracer, "storage.durable_add");
        (void)(*replay)->Add(std::move(one[0]));
      }
      out.layers.wal_bytes = static_cast<double>(DirectoryBytes(replay_dir));
      out.layers.wal_input_bytes = input_bytes;
      {
        Span span(tracer, "storage.checkpoint");
        (void)(*replay)->Checkpoint();
      }
      replay->reset();
      Span span(tracer, "storage.open");
      (void)webre::storage::DurableRepository::Open(replay_dir, durable_options);
    }
    RemoveTree(replay_dir);
  }

  out.end_to_end.insert(out.end_to_end.begin(), {"setup_s", Median(setup_s), "s"});
  out.end_to_end.push_back(
      {"ok_frac", 1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "frac"});
  out.end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out.end_to_end.push_back({"stored_bytes_per_input_byte",
                            admitted_bytes > 0 ? stored_bytes / admitted_bytes : 0.0,
                            "ratio"});
  out.detail.push_back({"recover_s", Median(open_s), "s"});
  out.detail.push_back({"documents_acknowledged", static_cast<double>(acked.size()), "count"});
  out.detail.push_back({"cache_hit_rate",
                        out.layers.cache_hits /
                            std::max(1.0, out.layers.cache_hits + out.layers.cache_misses),
                        "frac"});
  out.header.push_back({"documents", "0 at start"});
  out.header.push_back({"html_bytes", std::to_string(ingest.html_bytes)});
  out.header.push_back({"query_set", std::to_string(queries.size())});
  out.header.push_back({"ingest_fraction", std::to_string(kIngestFraction)});
  out.header.push_back({"checkpoint_every", std::to_string(kCheckpointEvery)});
  out.header.push_back({"wal_sync", "none"});
  AddServeHeader(out, sizes.ingest_rate, connections);
  RemoveTree(dir);
  return out;
}

}  // namespace perfbench
