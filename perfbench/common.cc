#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/stage.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: ceil(p/100 * n), 1-based, clamped to [1, n].
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double SliceMedian(size_t n, const std::function<double(size_t, size_t)>& stat) {
  const size_t slices = n >= kSlices ? kSlices : 1;
  std::vector<double> values;
  for (size_t s = 0; s < slices; ++s) {
    values.push_back(stat(n * s / slices, n * (s + 1) / slices));
  }
  return Median(std::move(values));
}

uint64_t Fnv(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvU64(uint64_t value, uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t AnswerDigest(uint64_t total_matches,
                      const std::vector<webre::serve::WireMatch>& matches) {
  uint64_t h = FnvU64(total_matches, Fnv(""));
  for (const webre::serve::WireMatch& m : matches) {
    h = FnvU64(m.doc, h);
    h = FnvU64(m.pos, h);
    h = Fnv(m.name, FnvU64(m.name.size(), h));
    h = Fnv(m.val, FnvU64(m.val.size(), h));
  }
  return h;
}

uint64_t TreeDigest(const webre::Node& root, uint64_t h) {
  std::vector<const webre::Node*> stack = {&root};
  while (!stack.empty()) {
    const webre::Node* node = stack.back();
    stack.pop_back();
    if (node->is_text()) {
      h = Fnv(node->text(), FnvU64(1, h));
      continue;
    }
    h = Fnv(node->name(), FnvU64(2, h));
    for (const webre::Attribute& a : node->attributes()) {
      h = Fnv(a.value, Fnv(a.name, FnvU64(3, h)));
    }
    h = FnvU64(node->child_count(), h);
    for (size_t i = node->child_count(); i > 0; --i) {
      stack.push_back(node->child(i - 1));
    }
  }
  return h;
}

void Tracer::AddConvertStages(const webre::ConvertStats& stats) const {
  if (collector_ == nullptr) return;
  for (const webre::ConvertStageSpan& span : stats.stage_spans) {
    collector_->AddSpan(LayerSpanName(webre::obs::PipelineStageName(span.stage)),
                        "layer", span.begin_seconds, span.end_seconds);
  }
}

std::string LayerSpanName(std::string_view stage_name) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"parse", "html.parse"},
      {"tidy", "html.tidy"},
      {"tokenize", "restructure.tokenize"},
      {"instance", "concepts.instance"},
      {"group", "restructure.group"},
      {"consolidate", "restructure.consolidate"},
      {"extract", "schema.extract"},
      {"discover", "schema.discover"},
      {"validate", "xml.validate"},
      {"map", "mapping.map"},
      {"document", "core.document"},
  };
  for (const auto& [stage, layer] : kLayers) {
    if (stage_name == stage) return layer;
  }
  return std::string(stage_name);
}

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<webre::obs::TraceEvent>& events) {
  // Per lane, sort by start (longer first on ties) and walk with a stack
  // of open spans: a span that starts and ends inside the top of the
  // stack is its child, and its duration is taken off the parent's self
  // time. Spans that merely overlap (client request spans on a receiver
  // lane) are siblings.
  std::map<uint32_t, std::vector<const webre::obs::TraceEvent*>> lanes;
  for (const webre::obs::TraceEvent& e : events) lanes[e.lane].push_back(&e);
  std::map<std::string, SpanStats> out;
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      if (a->timestamp_us != b->timestamp_us) {
        return a->timestamp_us < b->timestamp_us;
      }
      return a->duration_us > b->duration_us;
    });
    std::vector<std::pair<const webre::obs::TraceEvent*, SpanStats*>> open;
    for (const webre::obs::TraceEvent* e : spans) {
      const int64_t end = e->timestamp_us + e->duration_us;
      while (!open.empty() && open.back().first->timestamp_us +
                                      open.back().first->duration_us <
                                  end) {
        open.pop_back();
      }
      SpanStats& stats = out[LayerSpanName(e->name)];
      ++stats.count;
      stats.self_us += static_cast<double>(e->duration_us);
      stats.durations_us.push_back(static_cast<double>(e->duration_us));
      if (!open.empty()) {
        open.back().second->self_us -= static_cast<double>(e->duration_us);
      }
      open.emplace_back(e, &stats);
    }
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void FreshDirectory(const std::string& path) {
  RemoveTree(path);
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

size_t WorkThreads() { return std::max<size_t>(1, Nproc() / 2); }

CpuTicks ReadCpuTicks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal guest guest_nice".
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTicks ticks;
  if (!std::getline(in, line)) return ticks;
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  double v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double StealFrac(const CpuTicks& begin, const CpuTicks& end) {
  const double total = end.total - begin.total;
  return total > 0 ? (end.steal - begin.steal) / total : 0.0;
}

}  // namespace perfbench
