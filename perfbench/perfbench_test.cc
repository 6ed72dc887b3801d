// Tests of the benchmark itself: order statistics, schedule
// determinism, metric naming, and a tiny run of every workload.
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"
#include "load.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Metric names listed under `section` ("end_to_end" or "per_layer") of
// BENCHMARK.json, by scanning for "name" keys up to the closing bracket.
std::vector<std::string> DeclaredNames(const std::string& section) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::vector<std::string> names;
  size_t pos = json.find("\"" + section + "\"");
  if (pos == std::string::npos) return names;
  const size_t end = json.find(']', pos);
  const std::string key = "\"name\": \"";
  while ((pos = json.find(key, pos)) != std::string::npos && pos < end) {
    pos += key.size();
    names.push_back(json.substr(pos, json.find('"', pos) - pos));
  }
  return names;
}

// The name rule BENCHMARK.json imposes: at most 64 of [A-Za-z0-9_.-],
// starting with a letter or digit.
bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::vector<std::string> Names(const std::vector<Metric>& metrics) {
  std::vector<std::string> names;
  for (const Metric& m : metrics) names.push_back(m.name);
  return names;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(Percentile(v, 5), 15);
  EXPECT_EQ(Percentile(v, 30), 20);
  EXPECT_EQ(Percentile(v, 40), 20);
  EXPECT_EQ(Percentile(v, 50), 35);
  EXPECT_EQ(Percentile(v, 100), 50);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 99), 99);
  EXPECT_EQ(Percentile(hundred, 90), 90);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(ScheduleTest, SameSeedSameSequence) {
  ScheduleOptions options;
  options.rate_per_s = 500;
  options.seconds = 2;
  options.ingest_fraction = 0.3;
  options.checkpoint_every = 50;
  options.query_count = 1000;
  const auto a = MakeSchedule(options, 42);
  const auto b = MakeSchedule(options, 42);
  const auto c = MakeSchedule(options, 43);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 800u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ((i + 1) % 50 == 0, a[i].type == webre::serve::MsgType::kCheckpoint);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_s != c[i].at_s || a[i].item != c[i].item;
  }
  EXPECT_TRUE(differs);
  // Ingest bodies are consumed in order and never repeat.
  uint32_t next = 0;
  for (const PlannedRequest& r : a) {
    if (r.type == webre::serve::MsgType::kIngest) EXPECT_EQ(r.item, next++);
  }
}

TEST(ScheduleTest, ZipfHeadIsHottest) {
  webre::Rng rng(7);
  const Zipf zipf(1000, 1.0);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_GT(hits[10], hits[500]);
}

TEST(MetricNamesTest, ValidAndDeclared) {
  EXPECT_TRUE(ValidMetricName("serve.cache_hit_rate"));
  EXPECT_FALSE(ValidMetricName("bad name"));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName(""));
  const std::vector<std::string> e2e = Names(EndToEndSchema());
  const std::vector<std::string> layers =
      Names(PerLayerMetrics({}, LayerInputs{}, 0.0));
  std::set<std::string> all;
  for (const auto* list : {&e2e, &layers}) {
    for (const std::string& name : *list) {
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(all.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_EQ(e2e, DeclaredNames("end_to_end"));
  EXPECT_EQ(layers, DeclaredNames("per_layer"));
}

class TinyRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TinyRunTest, EmitsEveryMetric) {
  Args args;
  args.workload = GetParam();
  args.seed = 3;
  args.seconds = 1;
  args.tiny = true;
  args.work_dir = std::string("tiny_work_") + GetParam();
  PassResult pass;
  ASSERT_TRUE(RunWorkload(args, Tracer(nullptr), pass));
  EXPECT_TRUE(pass.correct) << (pass.check_failures.empty()
                                    ? ""
                                    : pass.check_failures.front());
  EXPECT_GT(pass.attempted, 0u);
  std::set<std::string> emitted;
  for (const Metric& m : pass.end_to_end) {
    emitted.insert(m.name);
    EXPECT_GT(m.value, 0) << m.name;
  }
  for (const Metric& want : EndToEndSchema()) {
    EXPECT_TRUE(emitted.count(want.name)) << want.name;
  }

  webre::obs::TraceCollector collector;
  PassResult traced;
  ASSERT_TRUE(RunWorkload(args, Tracer(&collector), traced));
  EXPECT_TRUE(traced.correct);
  EXPECT_GT(collector.event_count(), 0u);
  const std::vector<Metric> layers =
      PerLayerMetrics(AggregateSpans(collector.Events()), traced.layers, 0.0);
  EXPECT_EQ(Names(layers), DeclaredNames("per_layer"));
  RemoveTree(args.work_dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRunTest,
                         ::testing::Values("batch_convert", "serve_read",
                                           "serve_ingest"));

}  // namespace
}  // namespace perfbench
