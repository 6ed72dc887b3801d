// Durable-storage bench: what a snapshot buys, and what the WAL costs.
//
// Arms, all over the same generated resume corpus:
//   cold_reconvert       — the no-snapshot recovery path: re-convert
//                          every HTML page through the full pipeline
//                          and re-admit the trees into a repository.
//   mmap_open            — DurableRepository::Open over a checkpointed
//                          data directory: mmap + validation + summary
//                          restore, no parsing (the tentpole claim:
//                          near-zero warmup, storage.mmap_hits == docs).
//   wal_append_none      — durable Add with --wal-sync=none, vs
//   wal_append_fdatasync — durable Add with fdatasync before each ack,
//                          bounding the WAL's per-document overhead at
//                          both sync levels.
//
// The binary asserts the cold and mmap repositories agree on every
// probe query's match count before printing, so a snapshot that loses
// or mangles documents fails the bench rather than flattering it.
//
// Prints one JSON object (corpus, arms, derived ratios) to stdout; the
// checked-in BENCH_storage.json is a captured full run. ci/bench_smoke.sh
// replays a tiny corpus through this binary, validates both records,
// and asserts the artifact's open_speedup floor (>= 10x at 4000 docs).
//
// Usage: bench_storage [--docs=N] [--shards=N] [--reps=N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus/resume_generator.h"
#include "repository/repository.h"
#include "restructure/recognizer.h"
#include "storage/durable_repository.h"
#include "xml/node.h"

namespace {

struct Flags {
  size_t docs = 4000;
  size_t shards = 4;
  size_t reps = 5;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--docs=", 0) == 0) {
      flags.docs = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--reps=", 0) == 0) {
      flags.reps = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (flags.docs == 0 || flags.reps == 0) {
    std::fprintf(stderr, "--docs and --reps must be positive\n");
    std::exit(2);
  }
  return flags;
}

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

const char* const kProbes[] = {
    "/resume/EDUCATION/DATE",
    "//LANGUAGE",
    "//*[val~\"seattle\"]",
};

size_t ProbeMatches(const webre::XmlRepository& repo) {
  size_t total = 0;
  for (const char* probe : kProbes) {
    auto matches = repo.Query(probe);
    if (!matches.ok()) {
      std::fprintf(stderr, "probe query failed: %s\n",
                   matches.status().message().c_str());
      std::exit(1);
    }
    total += matches->size();
  }
  return total;
}

// Converts the corpus once; the result's trees/arenas are consumed by
// whichever arm runs next, so each caller converts its own copy.
webre::PipelineResult Convert(const std::vector<std::string>& pages,
                              const webre::ConceptSet& concepts,
                              const webre::SynonymRecognizer& recognizer,
                              const webre::ConstraintSet& constraints) {
  webre::PipelineOptions options;
  options.parallel.num_threads = 1;
  webre::Pipeline pipeline(&concepts, &recognizer, &constraints, options);
  webre::PipelineResult result = pipeline.Run(pages);
  if (result.failed_documents != 0) {
    std::fprintf(stderr, "%zu documents failed to convert\n",
                 result.failed_documents);
    std::exit(1);
  }
  return result;
}

std::string ScratchDir(const char* tag) {
  std::string tmpl = std::string("/tmp/bench_storage_") + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(1);
  }
  return std::string(buf.data());
}

void RemoveTree(const std::string& dir) {
  (void)::system(("rm -rf '" + dir + "'").c_str());
}

// Timed durable ingest of a freshly converted corpus; returns seconds.
double DurableIngest(const std::string& dir, const Flags& flags,
                     webre::storage::WalSyncMode sync,
                     webre::PipelineResult result) {
  webre::storage::DurableOptions options;
  options.repository.num_shards = flags.shards;
  options.wal_sync = sync;
  auto durable = webre::storage::DurableRepository::Open(dir, options);
  if (!durable.ok()) {
    std::fprintf(stderr, "durable open failed: %s\n",
                 durable.status().message().c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < result.documents.size(); ++i) {
    if (!(*durable)->Add(std::move(result.documents[i])).ok()) {
      std::fprintf(stderr, "durable add rejected document %zu\n", i);
      std::exit(1);
    }
    // Admission froze and freed the tree; its arena can go too.
    if (i < result.arenas.size()) result.arenas[i].reset();
  }
  return Seconds(start, std::chrono::steady_clock::now());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  std::vector<std::string> pages;
  size_t input_bytes = 0;
  for (size_t i = 0; i < flags.docs; ++i) {
    pages.push_back(webre::GenerateResume(i).html);
    input_bytes += pages.back().size();
  }

  const webre::ConceptSet concepts = webre::ResumeConcepts();
  const webre::ConstraintSet constraints = webre::ResumeConstraints();
  const webre::SynonymRecognizer recognizer(&concepts);

  // Warmup: global tables (interner, tag tables, synonym automaton).
  {
    std::vector<std::string> warm(
        pages.begin(),
        pages.begin() + static_cast<long>(std::min<size_t>(8, pages.size())));
    (void)Convert(warm, concepts, recognizer, constraints);
  }

  // ---- wal_append arms (each also leaves a directory; the kNone one
  // becomes the checkpointed directory the mmap arm opens). ----
  const std::string wal_dir = ScratchDir("wal");
  const double wal_none_seconds =
      DurableIngest(wal_dir, flags, webre::storage::WalSyncMode::kNone,
                    Convert(pages, concepts, recognizer, constraints));

  const std::string sync_dir = ScratchDir("sync");
  const double wal_sync_seconds =
      DurableIngest(sync_dir, flags, webre::storage::WalSyncMode::kFdatasync,
                    Convert(pages, concepts, recognizer, constraints));
  RemoveTree(sync_dir);

  // ---- cold_reconvert arm: pipeline + plain repository admission, the
  // whole path a process without a snapshot must repeat. ----
  size_t cold_matches = 0;
  double cold_seconds = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    webre::PipelineResult result =
        Convert(pages, concepts, recognizer, constraints);
    webre::RepositoryOptions repo_options;
    repo_options.num_shards = flags.shards;
    webre::XmlRepository repo(repo_options);
    for (size_t i = 0; i < result.documents.size(); ++i) {
      if (!repo.Add(std::move(result.documents[i])).ok()) {
        std::fprintf(stderr, "repository rejected document %zu\n", i);
        return 1;
      }
      if (i < result.arenas.size()) result.arenas[i].reset();
    }
    cold_seconds = Seconds(start, std::chrono::steady_clock::now());
    cold_matches = ProbeMatches(repo);
  }

  // ---- mmap_open arm: checkpoint once, then time reopens. ----
  double open_seconds = 0;
  uint64_t mmap_hits = 0;
  uint64_t snapshot_bytes = 0;
  size_t open_matches = 0;
  {
    webre::storage::DurableOptions options;
    options.repository.num_shards = flags.shards;
    {
      auto durable =
          webre::storage::DurableRepository::Open(wal_dir, options);
      if (!durable.ok() || (*durable)->repo().size() != flags.docs) {
        std::fprintf(stderr, "checkpoint source reopen failed\n");
        return 1;
      }
      if (!(*durable)->Checkpoint().ok()) {
        std::fprintf(stderr, "checkpoint failed\n");
        return 1;
      }
    }

    for (size_t rep = 0; rep < flags.reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      auto reopened =
          webre::storage::DurableRepository::Open(wal_dir, options);
      open_seconds += Seconds(start, std::chrono::steady_clock::now());
      if (!reopened.ok() || (*reopened)->repo().size() != flags.docs) {
        std::fprintf(stderr, "mmap reopen failed\n");
        return 1;
      }
      if (rep == 0) {
        mmap_hits = (*reopened)->stats().mmap_hits;
        snapshot_bytes = (*reopened)->stats().snapshot_bytes;
        open_matches = ProbeMatches((*reopened)->repo());
      }
    }
    open_seconds /= static_cast<double>(flags.reps);
  }
  RemoveTree(wal_dir);

  if (open_matches != cold_matches) {
    std::fprintf(stderr,
                 "ARMS DISAGREE: cold re-convert found %zu probe matches, "
                 "mmap open found %zu\n",
                 cold_matches, open_matches);
    return 1;
  }

  const double docs = static_cast<double>(flags.docs);
  std::printf(
      "{\n"
      "  \"bench\": \"bench_storage\",\n"
      "  \"corpus\": { \"documents\": %zu, \"input_mb\": %.3f, "
      "\"probe_matches\": %zu },\n"
      "  \"arms\": {\n"
      "    \"cold_reconvert\": { \"arm\": \"cold_reconvert\", "
      "\"documents\": %zu, \"seconds\": %.4f, \"docs_per_sec\": %.1f },\n"
      "    \"mmap_open\": { \"arm\": \"mmap_open\", \"documents\": %zu, "
      "\"seconds\": %.6f, \"docs_per_sec\": %.1f, \"mmap_hits\": %llu, "
      "\"snapshot_mb\": %.2f },\n"
      "    \"wal_append_none\": { \"arm\": \"wal_append_none\", "
      "\"documents\": %zu, \"seconds\": %.4f, \"us_per_doc\": %.2f },\n"
      "    \"wal_append_fdatasync\": { \"arm\": \"wal_append_fdatasync\", "
      "\"documents\": %zu, \"seconds\": %.4f, \"us_per_doc\": %.2f }\n"
      "  },\n"
      "  \"derived\": {\n"
      "    \"open_speedup\": %.1f,\n"
      "    \"fdatasync_cost_ratio\": %.2f\n"
      "  }\n"
      "}\n",
      flags.docs, static_cast<double>(input_bytes) / (1024.0 * 1024.0),
      cold_matches,  //
      flags.docs, cold_seconds, docs / cold_seconds,  //
      flags.docs, open_seconds, docs / open_seconds,
      static_cast<unsigned long long>(mmap_hits),
      static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0),  //
      flags.docs, wal_none_seconds, wal_none_seconds / docs * 1e6,  //
      flags.docs, wal_sync_seconds, wal_sync_seconds / docs * 1e6,  //
      cold_seconds / open_seconds, wal_sync_seconds / wal_none_seconds);
  return 0;
}
