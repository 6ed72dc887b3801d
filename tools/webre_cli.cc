// webre — command-line front end to the library.
//
//   webre convert FILE...                HTML -> XML on stdout
//   webre discover [options] FILE...     majority schema + DTD from files
//   webre map [options] FILE...          conform documents to the DTD
//   webre query QUERY FILE...            run a path query over files
//   webre query-bench [N]                query-serving throughput benchmark
//   webre serve [N]                      network front end (docs/SERVING.md)
//   webre demo [N]                       end-to-end on N generated resumes
//   webre help                           full flag reference on stdout
//
// `webre --serve [options]` is equivalent to `webre serve [options]`
// (flags-first spelling for process supervisors).
//
// Options for discover/map:
//   --sup=F      support threshold (default 0.45)
//   --ratio=F    support-ratio threshold (default 0.4)
//   --root=NAME  output root element name (default "resume")
//   --attlist    include <!ATTLIST> declarations in the DTD
//   --threads=N  worker threads for per-document stages
//                (default 1 = serial; 0 = one per hardware thread)
//
// Fault isolation (all commands taking FILE... input):
//   --keep-going      record per-document failures and continue (default)
//   --no-keep-going   any failed document aborts before schema discovery
//   --max-bytes=N     per-document input size cap
//   --max-depth=N     parse-tree depth cap
//   --max-nodes=N     parse-tree node-count cap
//   --max-entities=N  entity-expansion cap
//
// Observability (every command):
//   --metrics-json=FILE  write the batch metrics summary as JSON
//   --trace=FILE         write a Chrome trace_event file (chrome://tracing)
//   --stats              print a human-readable metrics table on stderr
//
// Documents that fail are reported on stderr as one JSON object per line
// ({"index":..,"file":..,"status":..,"stage":..,"message":..}) so batch
// drivers can triage without parsing prose. Exit code: 0 all documents
// converted, 2 partial failure under --keep-going, 1 total failure or
// abort. Full reference: docs/CLI.md.
//
// The bundled domain knowledge is the paper's resume topic (24 concepts /
// 233 instances); the library API accepts any ConceptSet for other
// topics.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "core/telemetry.h"
#include "corpus/resume_generator.h"
#include "mapping/document_mapper.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"
#include "repository/repository.h"
#include "restructure/recognizer.h"
#include "serve/server.h"
#include "storage/durable_repository.h"
#include "util/file.h"
#include "util/resource_limits.h"
#include "xml/writer.h"

namespace {

struct CliOptions {
  double sup = 0.45;
  double ratio = 0.4;
  std::string root = "resume";
  bool attlist = false;
  size_t threads = 1;
  size_t shards = 0;    // --shards=N (0 = one per hardware thread)
  size_t reps = 50;     // --reps=N (query-bench workload repetitions)
  std::string data_dir;            // --data-dir=DIR (durable repository)
  bool checkpoint = false;         // --checkpoint (snapshot + truncate WALs)
  std::string wal_sync = "none";   // --wal-sync=none|fdatasync
  bool serve = false;              // --serve (flags-first serve spelling)
  uint16_t port = 0;               // --port=N (0 = ephemeral)
  size_t loops = 0;                // --loops=N (0 = min(4, hw threads))
  size_t max_clients = 64;         // --max-clients=N
  size_t cache_bytes = 8u << 20;   // --cache-bytes=N (0 disables)
  bool keep_going = true;
  webre::ResourceLimits limits;
  std::string metrics_json_path;  // --metrics-json=FILE
  std::string trace_path;         // --trace=FILE
  bool stats = false;             // --stats
  bool help = false;              // --help anywhere
  std::vector<std::string> args;  // non-flag arguments
};

CliOptions ParseFlags(int argc, char** argv, int first) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--sup=", 0) == 0) {
      options.sup = std::strtod(arg.c_str() + 6, nullptr);
    } else if (arg.rfind("--ratio=", 0) == 0) {
      options.ratio = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--root=", 0) == 0) {
      options.root = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads =
          static_cast<size_t>(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      options.shards =
          static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--reps=", 0) == 0) {
      options.reps =
          static_cast<size_t>(std::strtoul(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      options.data_dir = arg.substr(11);
    } else if (arg == "--checkpoint") {
      options.checkpoint = true;
    } else if (arg.rfind("--wal-sync=", 0) == 0) {
      options.wal_sync = arg.substr(11);
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      options.port =
          static_cast<uint16_t>(std::strtoul(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--loops=", 0) == 0) {
      options.loops =
          static_cast<size_t>(std::strtoul(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--max-clients=", 0) == 0) {
      options.max_clients =
          static_cast<size_t>(std::strtoul(arg.c_str() + 14, nullptr, 10));
    } else if (arg.rfind("--cache-bytes=", 0) == 0) {
      options.cache_bytes =
          static_cast<size_t>(std::strtoull(arg.c_str() + 14, nullptr, 10));
    } else if (arg == "--attlist") {
      options.attlist = true;
    } else if (arg == "--keep-going") {
      options.keep_going = true;
    } else if (arg == "--no-keep-going") {
      options.keep_going = false;
    } else if (arg.rfind("--max-bytes=", 0) == 0) {
      options.limits.max_input_bytes =
          static_cast<size_t>(std::strtoull(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--max-depth=", 0) == 0) {
      options.limits.max_tree_depth =
          static_cast<size_t>(std::strtoull(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--max-nodes=", 0) == 0) {
      options.limits.max_node_count =
          static_cast<size_t>(std::strtoull(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--max-entities=", 0) == 0) {
      options.limits.max_entity_expansions =
          static_cast<size_t>(std::strtoull(arg.c_str() + 15, nullptr, 10));
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      options.metrics_json_path = arg.substr(15);
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--help") {
      options.help = true;
    } else {
      options.args.push_back(std::move(arg));
    }
  }
  return options;
}

struct Domain {
  Domain()
      : concepts(webre::ResumeConcepts()),
        constraints(webre::ResumeConstraints()),
        recognizer(&concepts) {}

  webre::ConceptSet concepts;
  webre::ConstraintSet constraints;
  webre::SynonymRecognizer recognizer;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "webre: %s\n", message.c_str());
  return 1;
}

// Minimal JSON string escaping for the error summary lines.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// Prints one JSON line per failed document to stderr and returns the
// process exit code for the batch: 0 all ok, 2 partial failure with
// keep-going, 1 aborted (or everything failed).
int ReportOutcomes(const webre::PipelineResult& result,
                   const std::vector<std::string>& files) {
  for (const webre::DocumentOutcome& outcome : result.outcomes) {
    if (outcome.ok()) continue;
    const std::string& file =
        outcome.index < files.size() ? files[outcome.index] : std::string();
    std::fprintf(stderr,
                 "{\"index\":%zu,\"file\":\"%s\",\"status\":\"%s\","
                 "\"stage\":\"%s\",\"message\":\"%s\"}\n",
                 outcome.index, EscapeJson(file).c_str(),
                 webre::DocumentStatusName(outcome.status),
                 EscapeJson(outcome.stage).c_str(),
                 EscapeJson(outcome.message).c_str());
  }
  if (result.aborted) {
    std::fprintf(stderr, "webre: aborted: %zu/%zu documents failed\n",
                 result.failed_documents, result.outcomes.size());
    return 1;
  }
  if (result.failed_documents == 0) return 0;
  std::fprintf(stderr, "webre: %zu/%zu documents failed; continuing\n",
               result.failed_documents, result.outcomes.size());
  return result.failed_documents == result.outcomes.size() ? 1 : 2;
}

// The observability sinks a command feeds (allocated only when the user
// asked for output via --metrics-json / --trace / --stats) and the logic
// that renders them once the run finished.
struct ObsSinks {
  explicit ObsSinks(const CliOptions& options) {
    if (!options.metrics_json_path.empty() || options.stats) {
      metrics = std::make_unique<webre::obs::PipelineMetrics>();
    }
    if (!options.trace_path.empty()) {
      trace = std::make_unique<webre::obs::TraceCollector>();
    }
  }

  bool active() const { return metrics != nullptr || trace != nullptr; }

  // Writes/prints whatever the user requested. Returns 0, or 1 if an
  // output file could not be written.
  int Finish(const CliOptions& options) const {
    int code = 0;
    if (metrics != nullptr) {
      const webre::obs::PipelineMetricsSnapshot snapshot =
          metrics->Snapshot();
      if (!options.metrics_json_path.empty()) {
        const webre::obs::BudgetLimitsView limits =
            webre::ToBudgetLimitsView(options.limits);
        webre::Status status =
            webre::WriteFileAtomic(options.metrics_json_path,
                                   webre::obs::MetricsToJson(snapshot, &limits));
        if (!status.ok()) {
          Fail(status.ToString());
          code = 1;
        }
      }
      if (options.stats) {
        std::fprintf(stderr, "%s",
                     webre::obs::MetricsToTable(snapshot).c_str());
      }
    }
    if (trace != nullptr) {
      webre::Status status =
          webre::WriteFileAtomic(options.trace_path, trace->ToJson());
      if (!status.ok()) {
        Fail(status.ToString());
        code = 1;
      }
    }
    return code;
  }

  std::unique_ptr<webre::obs::PipelineMetrics> metrics;
  std::unique_ptr<webre::obs::TraceCollector> trace;
};

webre::Pipeline MakePipeline(const Domain& domain,
                             const CliOptions& options,
                             const ObsSinks& sinks,
                             bool map_documents = false) {
  webre::PipelineOptions pipeline_options;
  pipeline_options.convert.root_name = options.root;
  pipeline_options.mining.sup_threshold = options.sup;
  pipeline_options.mining.ratio_threshold = options.ratio;
  pipeline_options.dtd.mark_optional = map_documents;
  pipeline_options.map_documents = map_documents;
  pipeline_options.parallel.num_threads = options.threads;
  pipeline_options.limits = options.limits;
  pipeline_options.keep_going = options.keep_going;
  pipeline_options.metrics = sinks.metrics.get();
  pipeline_options.trace = sinks.trace.get();
  return webre::Pipeline(&domain.concepts, &domain.recognizer,
                         &domain.constraints, pipeline_options);
}

// Reads every file (or fails loudly); empty list is an error.
bool ReadPages(const std::vector<std::string>& paths,
               std::vector<std::string>& pages) {
  if (paths.empty()) {
    Fail("no input files");
    return false;
  }
  for (const std::string& path : paths) {
    webre::StatusOr<std::string> contents = webre::ReadFile(path);
    if (!contents.ok()) {
      Fail(contents.status().ToString());
      return false;
    }
    pages.push_back(std::move(contents.value()));
  }
  return true;
}

int CmdConvert(const CliOptions& options) {
  std::vector<std::string> pages;
  if (!ReadPages(options.args, pages)) return 1;
  Domain domain;
  ObsSinks sinks(options);
  webre::ConvertOptions convert;
  convert.root_name = options.root;
  convert.limits = options.limits;
  convert.record_stage_spans = sinks.active();
  webre::DocumentConverter converter(&domain.concepts, &domain.recognizer,
                                     &domain.constraints, convert);
  size_t failed = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    webre::ConvertStats stats;
    std::string stage;
    const double doc_begin =
        sinks.active() ? webre::obs::MonotonicSeconds() : 0.0;
    // convert runs without per-document arenas (trees go straight to the
    // heap, mem.arena_bytes stays 0), but node construction is counted
    // the same way the pipeline counts it.
    const uint64_t allocs_before = webre::Node::AllocationsOnThisThread();
    webre::StatusOr<std::unique_ptr<webre::Node>> xml =
        converter.TryConvert(pages[i], &stats, &stage);
    stats.mem_node_allocs =
        webre::Node::AllocationsOnThisThread() - allocs_before;
    if (sinks.active()) {
      // convert runs the DocumentConverter directly (no Pipeline), so
      // the metrics/trace are assembled here via the same telemetry
      // helpers the pipeline uses.
      const double doc_end = webre::obs::MonotonicSeconds();
      const webre::DocumentStatus status =
          xml.ok() ? webre::DocumentStatus::kOk
                   : webre::StatusToDocumentStatus(xml.status());
      if (sinks.metrics != nullptr) {
        webre::RecordConvertMetrics(*sinks.metrics, stats);
        sinks.metrics->convert_us.Record(
            static_cast<uint64_t>((doc_end - doc_begin) * 1e6));
        sinks.metrics->RecordOutcome(
            webre::DocumentStatusName(status), xml.ok() ? "" : stage,
            xml.ok() ? "" : std::string(xml.status().message()));
      }
      if (sinks.trace != nullptr) {
        webre::EmitConvertTrace(*sinks.trace, stats, i);
        sinks.trace->AddSpan("document", "doc", doc_begin, doc_end, i);
      }
    }
    if (!xml.ok()) {
      ++failed;
      std::fprintf(stderr,
                   "{\"index\":%zu,\"file\":\"%s\",\"status\":\"%s\","
                   "\"stage\":\"%s\",\"message\":\"%s\"}\n",
                   i, EscapeJson(options.args[i]).c_str(),
                   webre::DocumentStatusName(
                       webre::StatusToDocumentStatus(xml.status())),
                   EscapeJson(stage).c_str(),
                   EscapeJson(xml.status().message()).c_str());
      if (!options.keep_going) {
        sinks.Finish(options);
        return 1;
      }
      continue;
    }
    std::printf("<!-- %s: %zu concept nodes, %.0f%% tokens identified -->\n",
                options.args[i].c_str(), stats.concept_nodes,
                100.0 * stats.instance.IdentifiedRatio());
    std::printf("%s", webre::WriteXml(*xml.value()).c_str());
  }
  const int obs_code = sinks.Finish(options);
  if (failed == 0) return obs_code;
  std::fprintf(stderr, "webre: %zu/%zu documents failed\n", failed,
               pages.size());
  return failed == pages.size() ? 1 : 2;
}

int CmdDiscover(const CliOptions& options) {
  std::vector<std::string> pages;
  if (!ReadPages(options.args, pages)) return 1;
  Domain domain;
  ObsSinks sinks(options);
  webre::PipelineResult result =
      MakePipeline(domain, options, sinks).Run(pages);
  const int code = ReportOutcomes(result, options.args);
  sinks.Finish(options);
  if (result.aborted) return code;
  const size_t converted = pages.size() - result.failed_documents;
  std::printf("majority schema (%zu frequent paths from %zu documents):\n%s",
              result.schema.NodeCount(), converted,
              result.schema.ToString().c_str());
  std::printf("\nDTD:\n%s",
              result.dtd.ToString(options.attlist).c_str());
  std::printf("\n%zu/%zu documents conform as converted\n",
              result.conforming_before, converted);
  return code;
}

int CmdMap(const CliOptions& options) {
  std::vector<std::string> pages;
  if (!ReadPages(options.args, pages)) return 1;
  Domain domain;
  ObsSinks sinks(options);
  webre::PipelineResult result =
      MakePipeline(domain, options, sinks, /*map_documents=*/true)
          .Run(pages);
  const int code = ReportOutcomes(result, options.args);
  sinks.Finish(options);
  if (result.aborted) return code;
  for (size_t i = 0; i < result.mapped_documents.size(); ++i) {
    if (result.mapped_documents[i] == nullptr) continue;  // failed doc
    std::printf("<!-- %s (mapped) -->\n%s", options.args[i].c_str(),
                webre::WriteXml(*result.mapped_documents[i]).c_str());
  }
  const size_t converted = pages.size() - result.failed_documents;
  std::fprintf(stderr, "webre: %zu/%zu conform before, %zu/%zu after\n",
               result.conforming_before, converted,
               result.conforming_after, converted);
  return code;
}

// The serving repository a query command uses: plain and in-memory by
// default; durable (snapshot + WAL under --data-dir) when asked. Both
// faces expose the same XmlRepository for querying.
struct RepoHandle {
  std::unique_ptr<webre::XmlRepository> plain;
  std::unique_ptr<webre::storage::DurableRepository> durable;
  webre::XmlRepository* repo = nullptr;

  // Returns a non-OK status when the data dir cannot be opened (a
  // corrupt snapshot, or one from an incompatible format version).
  webre::Status Open(const CliOptions& options) {
    webre::RepositoryOptions repo_options;
    repo_options.num_shards = options.shards;
    if (options.data_dir.empty()) {
      plain = std::make_unique<webre::XmlRepository>(repo_options);
      repo = plain.get();
      return webre::Status::Ok();
    }
    webre::storage::DurableOptions durable_options;
    durable_options.repository = repo_options;
    if (options.wal_sync == "fdatasync") {
      durable_options.wal_sync = webre::storage::WalSyncMode::kFdatasync;
    } else if (options.wal_sync != "none") {
      return webre::Status::InvalidArgument(
          "--wal-sync must be none or fdatasync, got " + options.wal_sync);
    }
    auto opened =
        webre::storage::DurableRepository::Open(options.data_dir,
                                                durable_options);
    if (!opened.ok()) return opened.status();
    durable = std::move(opened).value();
    repo = &durable->repo();
    return webre::Status::Ok();
  }

  webre::StatusOr<webre::DocId> Add(std::unique_ptr<webre::Node> document) {
    return durable != nullptr ? durable->Add(std::move(document))
                              : repo->Add(std::move(document));
  }

  // Admits `result`'s mapped document `i`, then releases what the
  // conversion kept for it: the unmapped tree, then the arena both
  // trees were carved from (a tree must die before its arena). So a
  // document's conversion memory is returned as soon as it is frozen,
  // not when `result` dies.
  webre::StatusOr<webre::DocId> AddMapped(webre::PipelineResult& result,
                                          size_t i) {
    auto added = Add(std::move(result.mapped_documents[i]));
    if (added.ok()) {
      result.documents[i].reset();
      if (i < result.arenas.size()) result.arenas[i].reset();
    }
    return added;
  }

  // Renders the storage.* sinks and the optional --checkpoint cycle.
  // Returns 0, or 1 when the checkpoint failed.
  int Finish(const CliOptions& options, const ObsSinks& sinks) {
    if (durable == nullptr) {
      if (options.checkpoint) return Fail("--checkpoint requires --data-dir");
      return 0;
    }
    if (options.checkpoint) {
      webre::Status status = durable->Checkpoint();
      if (!status.ok()) return Fail(status.ToString());
    }
    if (sinks.metrics != nullptr) {
      sinks.metrics->MergeStorageStats(durable->stats());
    }
    return 0;
  }
};

int CmdQuery(const CliOptions& options) {
  if (options.args.size() < 2) {
    return Fail("usage: webre query QUERY FILE...");
  }
  const std::string query = options.args[0];
  std::vector<std::string> pages;
  std::vector<std::string> paths(options.args.begin() + 1,
                                 options.args.end());
  if (!ReadPages(paths, pages)) return 1;

  Domain domain;
  ObsSinks sinks(options);
  webre::PipelineResult result =
      MakePipeline(domain, options, sinks, /*map_documents=*/true)
          .Run(pages);
  const int code = ReportOutcomes(result, paths);
  if (result.aborted) {
    sinks.Finish(options);
    return code;
  }
  RepoHandle handle;
  if (webre::Status status = handle.Open(options); !status.ok()) {
    sinks.Finish(options);
    return Fail(status.ToString());
  }
  webre::XmlRepository& repo = *handle.repo;
  // The repository is packed with surviving documents only, so repo doc
  // ids must be mapped back to input paths. Each document's arena is
  // released once the document is frozen (AddMapped). With --data-dir
  // the repository may already hold documents recovered from disk;
  // those ids precede `first_new` and report the data dir as their
  // source.
  const size_t first_new = repo.size();
  std::vector<size_t> repo_to_input;
  for (size_t i = 0; i < result.mapped_documents.size(); ++i) {
    if (result.mapped_documents[i] == nullptr) continue;  // failed doc
    auto added = handle.AddMapped(result, i);
    if (!added.ok()) {
      sinks.Finish(options);
      return Fail(added.status().ToString());
    }
    repo_to_input.push_back(i);
  }
  auto matches = repo.Query(query);
  if (!matches.ok()) {
    sinks.Finish(options);
    return Fail(matches.status().ToString());
  }
  const webre::NameTable& names = webre::NameTable::Global();
  for (const webre::QueryMatch& match : *matches) {
    const char* source =
        match.doc >= first_new
            ? paths[repo_to_input[match.doc - first_new]].c_str()
            : options.data_dir.c_str();
    std::printf("%s: <%s val=\"%s\">\n", source,
                std::string(names.NameOf(match.name())).c_str(),
                std::string(match.val()).c_str());
  }
  std::fprintf(stderr, "webre: %zu matches\n", matches->size());
  if (sinks.metrics != nullptr) {
    sinks.metrics->MergeQueryStats(repo.query_stats());
  }
  if (handle.Finish(options, sinks) != 0) {
    sinks.Finish(options);
    return 1;
  }
  sinks.Finish(options);
  return code;
}

// Loads a generated corpus into the repository and times a built-in
// query workload against it — the CLI face of bench/bench_query.cc.
int CmdQueryBench(const CliOptions& options) {
  const size_t count =
      options.args.empty()
          ? 400
          : std::strtoul(options.args[0].c_str(), nullptr, 10);
  std::vector<std::string> pages;
  pages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pages.push_back(webre::GenerateResume(i).html);
  }
  Domain domain;
  ObsSinks sinks(options);
  webre::PipelineResult result =
      MakePipeline(domain, options, sinks, /*map_documents=*/true)
          .Run(pages);
  if (result.aborted) {
    sinks.Finish(options);
    return Fail("conversion aborted; no repository to benchmark");
  }

  RepoHandle handle;
  if (webre::Status status = handle.Open(options); !status.ok()) {
    sinks.Finish(options);
    return Fail(status.ToString());
  }
  webre::XmlRepository& repo = *handle.repo;
  const double load_begin = webre::obs::MonotonicSeconds();
  for (size_t i = 0; i < result.mapped_documents.size(); ++i) {
    if (result.mapped_documents[i] == nullptr) continue;  // failed doc
    handle.AddMapped(result, i).value();
  }
  const double load_seconds = webre::obs::MonotonicSeconds() - load_begin;

  // Simple paths (summary-only), descendant/wildcard/predicate shapes
  // (still summary-only) and an intermediate predicate (tree fallback).
  const char* const workload[] = {
      "/resume/EDUCATION/DATE",
      "/resume/SKILLS/LANGUAGE",
      "/resume/CONTACT/LOCATION/EMAIL",
      "//DATE",
      "//LANGUAGE[val~\"java\"]",
      "/resume/EXPERIENCE//DATE",
      "//LOCATION/*",
      "/resume/EDUCATION[val~\"univ\"]/DATE",
  };
  std::vector<webre::PathQuery> queries;
  for (const char* text : workload) {
    queries.push_back(webre::PathQuery::Parse(text).value());
  }

  size_t total_matches = 0;
  const double bench_begin = webre::obs::MonotonicSeconds();
  for (size_t rep = 0; rep < options.reps; ++rep) {
    for (const webre::PathQuery& parsed : queries) {
      total_matches += repo.Query(parsed).size();
    }
  }
  const double bench_seconds = webre::obs::MonotonicSeconds() - bench_begin;

  const webre::obs::QueryStatsView stats = repo.query_stats();
  const webre::RepositoryStats repo_stats = repo.Stats();
  std::printf("query-bench: %zu docs, %zu shards, %zu distinct paths, "
              "load %.3fs\n",
              repo.size(), repo.num_shards(), repo_stats.distinct_paths,
              load_seconds);
  std::printf("ran %zu queries in %.3fs (%.0f queries/sec), %zu matches\n",
              static_cast<size_t>(stats.queries), bench_seconds,
              bench_seconds > 0.0 ? stats.queries / bench_seconds : 0.0,
              total_matches);
  std::printf("plans: %llu index hits, %llu prefix hits, "
              "%llu fallback walks\n",
              static_cast<unsigned long long>(stats.index_hits),
              static_cast<unsigned long long>(stats.prefix_hits),
              static_cast<unsigned long long>(stats.fallback_walks));
  if (sinks.metrics != nullptr) {
    sinks.metrics->MergeQueryStats(stats);
  }
  const int storage_code = handle.Finish(options, sinks);
  if (handle.durable != nullptr) {
    const webre::obs::StorageStatsView storage = handle.durable->stats();
    std::printf("storage: %llu wal appends, %llu replayed, %llu mmap hits, "
                "snapshot %llu bytes\n",
                static_cast<unsigned long long>(storage.wal_appends),
                static_cast<unsigned long long>(storage.wal_replayed),
                static_cast<unsigned long long>(storage.mmap_hits),
                static_cast<unsigned long long>(storage.snapshot_bytes));
  }
  if (storage_code != 0) {
    sinks.Finish(options);
    return 1;
  }
  return sinks.Finish(options);
}

// Serves the repository over TCP (wire protocol: docs/SERVING.md).
// `webre serve [N]` preloads N generated resumes (default 0), prints the
// bound port, then runs until stdin reaches EOF — the shape a process
// supervisor (or a test harness) wants. With --data-dir the repository
// is durable: recovered at start, ingests WAL-logged, and the protocol's
// checkpoint request works.
int CmdServe(const CliOptions& options) {
  const size_t count =
      options.args.empty()
          ? 0
          : std::strtoul(options.args[0].c_str(), nullptr, 10);
  Domain domain;
  ObsSinks sinks(options);
  RepoHandle handle;
  if (webre::Status status = handle.Open(options); !status.ok()) {
    return Fail(status.ToString());
  }
  webre::ConvertOptions convert;
  convert.root_name = options.root;
  convert.limits = options.limits;
  webre::DocumentConverter converter(&domain.concepts, &domain.recognizer,
                                     &domain.constraints, convert);
  for (size_t i = 0; i < count; ++i) {
    auto tree = converter.TryConvert(webre::GenerateResume(i).html);
    if (!tree.ok()) return Fail(tree.status().ToString());
    auto added = handle.Add(std::move(tree.value()));
    if (!added.ok()) return Fail(added.status().ToString());
  }

  webre::serve::ServeContext context;
  context.repo = handle.repo;
  context.durable = handle.durable.get();
  context.converter = &converter;
  webre::serve::ServeOptions serve_options;
  serve_options.port = options.port;
  serve_options.loops = options.loops;
  serve_options.max_clients = options.max_clients;
  serve_options.cache_bytes = options.cache_bytes;
  serve_options.worker_threads = options.threads;
  serve_options.limits = options.limits;
  webre::serve::Server server(context, serve_options);
  if (webre::Status status = server.Start(); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("webre: serving on 127.0.0.1:%u with %zu event loops "
              "(%zu documents preloaded; EOF on stdin stops)\n",
              server.port(), server.loops(), handle.repo->size());
  std::fflush(stdout);
  char buffer[256];
  while (std::fread(buffer, 1, sizeof(buffer), stdin) > 0) {
  }
  server.Stop();

  const webre::serve::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "webre: served %llu requests (%llu shed, %llu errors), "
               "cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(stats.view.requests),
               static_cast<unsigned long long>(stats.view.shed_requests),
               static_cast<unsigned long long>(stats.view.errors),
               static_cast<unsigned long long>(stats.view.cache_hits),
               static_cast<unsigned long long>(stats.view.cache_misses));
  if (sinks.metrics != nullptr) {
    sinks.metrics->MergeServeStats(stats.view);
    sinks.metrics->MergeQueryStats(handle.repo->query_stats());
  }
  if (handle.Finish(options, sinks) != 0) {
    sinks.Finish(options);
    return 1;
  }
  return sinks.Finish(options);
}

int CmdDemo(const CliOptions& options) {
  const size_t count =
      options.args.empty()
          ? 120
          : std::strtoul(options.args[0].c_str(), nullptr, 10);
  std::vector<std::string> pages;
  for (size_t i = 0; i < count; ++i) {
    pages.push_back(webre::GenerateResume(i).html);
  }
  Domain domain;
  ObsSinks sinks(options);
  webre::PipelineResult result =
      MakePipeline(domain, options, sinks, /*map_documents=*/true)
          .Run(pages);
  std::printf("converted %zu generated resumes\n", pages.size());
  std::printf("schema (%zu paths):\n%s\nDTD:\n%s",
              result.schema.NodeCount(), result.schema.ToString().c_str(),
              result.dtd.ToString(options.attlist).c_str());
  std::printf("\nconforming: %zu before mapping, %zu after\n",
              result.conforming_before, result.conforming_after);
  return sinks.Finish(options);
}

// The complete flag reference. docs/CLI.md documents exactly this set
// (ci/check_cli_docs.sh compares the two), so keep them in lockstep.
void PrintHelp(std::FILE* out) {
  std::fprintf(
      out,
      "usage: webre <command> [options] [args]\n"
      "commands:\n"
      "  convert FILE...       HTML -> concept-tagged XML on stdout\n"
      "  discover FILE...      discover the majority schema + DTD\n"
      "  map FILE...           conform documents to the discovered DTD\n"
      "  query QUERY FILE...   run a path query (e.g. //DATE[val~\"1996\"])\n"
      "  query-bench [N]       time a query workload over N generated docs\n"
      "  serve [N]             serve the repository over TCP, preloading N\n"
      "                        generated resumes (see docs/SERVING.md)\n"
      "  demo [N]              end-to-end run on N generated resumes\n"
      "  help                  print this reference on stdout\n"
      "discovery options (discover/map/query/demo):\n"
      "  --sup=F               support threshold (default 0.45)\n"
      "  --ratio=F             support-ratio threshold (default 0.4)\n"
      "  --root=NAME           output root element name (default resume)\n"
      "  --attlist             include <!ATTLIST> declarations in the DTD\n"
      "  --threads=N           worker threads (1 = serial, 0 = all cores)\n"
      "repository options (query/query-bench):\n"
      "  --shards=N            repository shards (0 = one per core)\n"
      "  --reps=N              query-bench workload repetitions (default 50)\n"
      "  --data-dir=DIR        durable repository: recover state from DIR\n"
      "                        (snapshot + WALs) and log admissions\n"
      "  --wal-sync=MODE       WAL durability: none (default) or fdatasync\n"
      "  --checkpoint          write a snapshot and truncate the WALs\n"
      "                        before exiting (requires --data-dir)\n"
      "serving options (serve; `--serve` = flags-first spelling):\n"
      "  --serve               run the server (equivalent to `serve`)\n"
      "  --port=N              TCP port to bind on loopback (0 = ephemeral)\n"
      "  --loops=N             event-loop (reactor) threads, each owning its\n"
      "                        own epoll set (0 = min(4, cores), default)\n"
      "  --max-clients=N       concurrent connections before shedding\n"
      "                        (default 64)\n"
      "  --cache-bytes=N       query-result cache size (default 8 MiB;\n"
      "                        0 disables)\n"
      "fault isolation:\n"
      "  --keep-going          record failures, continue (default)\n"
      "  --no-keep-going       any failed document aborts the batch\n"
      "  --max-bytes=N         per-document input size cap\n"
      "  --max-depth=N         parse-tree depth cap\n"
      "  --max-nodes=N         parse-tree node-count cap\n"
      "  --max-entities=N      entity-expansion cap\n"
      "observability:\n"
      "  --metrics-json=FILE   write batch metrics as JSON\n"
      "  --trace=FILE          write a Chrome trace_event file\n"
      "  --stats               print a metrics table on stderr\n"
      "  --help                print this reference on stdout\n"
      "failed documents are reported as JSON lines on stderr;\n"
      "exit 0 = all ok, 2 = partial failure (keep-going), 1 = abort\n"
      "full reference: docs/CLI.md\n");
}

void Usage() { PrintHelp(stderr); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  if (command.rfind("--", 0) == 0 && command != "--help") {
    // Flags-first spelling: `webre --serve --port=7070 ...`.
    CliOptions options = ParseFlags(argc, argv, 1);
    if (options.help) {
      PrintHelp(stdout);
      return 0;
    }
    if (options.serve) return CmdServe(options);
    Usage();
    return 1;
  }
  CliOptions options = ParseFlags(argc, argv, 2);
  if (command == "help" || command == "--help" || options.help) {
    PrintHelp(stdout);
    return 0;
  }
  if (command == "convert") return CmdConvert(options);
  if (command == "discover") return CmdDiscover(options);
  if (command == "map") return CmdMap(options);
  if (command == "query") return CmdQuery(options);
  if (command == "query-bench") return CmdQueryBench(options);
  if (command == "serve" || options.serve) return CmdServe(options);
  if (command == "demo") return CmdDemo(options);
  Usage();
  return 1;
}
