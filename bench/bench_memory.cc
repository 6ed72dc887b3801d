// Memory-layer bench: single-thread end-to-end conversion throughput,
// heap allocations per document, peak RSS over a generated resume
// corpus, and the steady-state RSS of a repository holding that corpus
// (conversion scaffolding released, heap trimmed). Prints one JSON
// object (one "arm") to stdout; the checked-in BENCH_memory.json
// combines a pre-change arm with the current build (see
// ci/bench_smoke.sh, which validates that file's schema).
//
// The binary intentionally uses only the pipeline's stable public API
// so the same source compiles against the pre-arena tree — that is how
// the "before" arm of BENCH_memory.json was measured. The repository
// ingest is likewise gated on the header existing.
//
// Usage: bench_memory [--docs=N] [--arm=NAME] [--arena=on|off]

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus/resume_generator.h"
#include "restructure/recognizer.h"

#if __has_include("xml/node_arena.h")
#define WEBRE_BENCH_HAS_NODE_ARENA 1
#endif
#if __has_include("repository/repository.h")
#include "repository/repository.h"
#define WEBRE_BENCH_HAS_REPOSITORY 1
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

// Counts every heap allocation made while g_counting is set. The
// pipeline is run single-threaded here, but the counters stay atomic so
// incidental helper threads cannot corrupt them.
std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<bool> g_counting{false};

inline void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

struct Flags {
  std::size_t docs = 200;
  std::string arm = "current";
  bool arena = true;
};

// Resident set right now, from /proc/self/status (ru_maxrss is the
// high-water mark and never comes back down, so it cannot observe the
// savings from freezing trees and releasing their arenas). Returns 0.0
// where /proc is unavailable.
double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;  // value is in KiB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--docs=", 0) == 0) {
      flags.docs = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg.rfind("--arm=", 0) == 0) {
      flags.arm = arg.substr(6);
    } else if (arg == "--arena=on") {
      flags.arena = true;
    } else if (arg == "--arena=off") {
      flags.arena = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  std::vector<std::string> pages;
  std::size_t input_bytes = 0;
  for (std::size_t i = 0; i < flags.docs; ++i) {
    pages.push_back(webre::GenerateResume(i).html);
    input_bytes += pages.back().size();
  }

  webre::ConceptSet concepts = webre::ResumeConcepts();
  webre::ConstraintSet constraints = webre::ResumeConstraints();
  webre::SynonymRecognizer recognizer(&concepts);

  webre::PipelineOptions options;
  options.parallel.num_threads = 1;
  // The printed "arena" field reports what actually ran, not what was
  // requested: a pre-arena build always runs (and reports) arena-less.
  bool arena_in_effect = false;
#ifdef WEBRE_BENCH_HAS_NODE_ARENA
  options.use_node_arena = flags.arena;
  arena_in_effect = flags.arena;
#else
  if (flags.arena) {
    std::fprintf(stderr, "note: this build has no node arena\n");
  }
#endif
  webre::Pipeline pipeline(&concepts, &recognizer, &constraints, options);

  // Warmup: seeds the global tables (interner, tag tables, synonym
  // automaton) and faults in the code, so the timed run measures the
  // steady state both arms reach in production.
  {
    std::vector<std::string> warm(pages.begin(),
                                  pages.begin() +
                                      static_cast<long>(
                                          std::min<std::size_t>(8, pages.size())));
    webre::PipelineResult warm_result = pipeline.Run(warm);
    if (warm_result.failed_documents != 0) {
      std::fprintf(stderr, "warmup conversion failed\n");
      return 1;
    }
  }

  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  webre::PipelineResult result = pipeline.Run(pages);
  const auto stop = std::chrono::steady_clock::now();
  g_counting.store(false, std::memory_order_relaxed);
  const uint64_t heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);

  if (result.failed_documents != 0) {
    std::fprintf(stderr, "%zu documents failed\n", result.failed_documents);
    return 1;
  }

  const double seconds =
      std::chrono::duration<double>(stop - start).count();
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is KiB on Linux

  // Steady state: hand the converted corpus to the repository (which
  // freezes each tree into a FlatDoc and frees the tree), release each
  // document's arena after it, drop every piece of conversion
  // scaffolding, trim the heap, and read the resident set that remains.
  double repo_rss_mb = 0.0;
#ifdef WEBRE_BENCH_HAS_REPOSITORY
  webre::RepositoryOptions repo_options;
  repo_options.num_shards = 1;
  webre::XmlRepository repo(repo_options);
  for (std::size_t i = 0; i < result.documents.size(); ++i) {
    if (result.documents[i] == nullptr) continue;
    if (!repo.Add(std::move(result.documents[i])).ok()) {
      std::fprintf(stderr, "repository rejected document %zu\n", i);
      return 1;
    }
    if (i < result.arenas.size()) result.arenas[i].reset();
  }
  result = webre::PipelineResult{};  // free trees, arenas, outcomes
  pages.clear();
  pages.shrink_to_fit();
#if defined(__GLIBC__)
  malloc_trim(0);  // return freed pages so VmRSS reflects live data
#endif
  repo_rss_mb = CurrentRssMb();
#endif

  std::printf(
      "{\n"
      "  \"arm\": \"%s\",\n"
      "  \"arena\": %s,\n"
      "  \"documents\": %zu,\n"
      "  \"input_mb\": %.3f,\n"
      "  \"seconds\": %.4f,\n"
      "  \"docs_per_sec\": %.1f,\n"
      "  \"mb_per_sec\": %.2f,\n"
      "  \"heap_allocs\": %llu,\n"
      "  \"heap_allocs_per_doc\": %.1f,\n"
      "  \"peak_rss_mb\": %.1f,\n"
      "  \"repo_rss_mb\": %.1f\n"
      "}\n",
      flags.arm.c_str(), arena_in_effect ? "true" : "false", flags.docs,
      static_cast<double>(input_bytes) / (1024.0 * 1024.0), seconds,
      static_cast<double>(flags.docs) / seconds,
      static_cast<double>(input_bytes) / (1024.0 * 1024.0) / seconds,
      static_cast<unsigned long long>(heap_allocs),
      static_cast<double>(heap_allocs) / static_cast<double>(flags.docs),
      static_cast<double>(usage.ru_maxrss) / 1024.0, repo_rss_mb);
#ifdef WEBRE_BENCH_HAS_REPOSITORY
  if (repo.size() == 0) return 1;  // keep the repository live until here
#endif
  return 0;
}
