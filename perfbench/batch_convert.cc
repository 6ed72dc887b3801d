// batch_convert: the paper's own path as a closed batch.
#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "core/pipeline.h"
#include "corpus.h"
#include "mapping/document_mapper.h"
#include "restructure/accuracy.h"
#include "restructure/recognizer.h"
#include "workloads.h"
#include "xml/writer.h"

namespace perfbench {
namespace {

// Digest of everything a batch hands its caller: per page the outcome,
// the converted tree and the mapped tree.
uint64_t BatchDigest(const webre::PipelineResult& result) {
  uint64_t h = Fnv("");
  for (size_t i = 0; i < result.documents.size(); ++i) {
    h = FnvU64(static_cast<uint64_t>(result.outcomes[i].status), h);
    if (result.documents[i] != nullptr) h = TreeDigest(*result.documents[i], h);
    if (i < result.mapped_documents.size() &&
        result.mapped_documents[i] != nullptr) {
      h = TreeDigest(*result.mapped_documents[i], FnvU64(7, h));
    }
  }
  return h;
}

// What the pipeline reads besides the pages; address-stable.
struct Domain {
  webre::ConceptSet concepts = webre::ResumeConcepts();
  webre::ConstraintSet constraints = webre::ResumeConstraints();
  webre::SynonymRecognizer recognizer{&concepts};
};

}  // namespace

PassResult RunBatchConvert(const Args& args, const Tracer& tracer) {
  PassResult out;
  const size_t pages = args.tiny ? 60 : 2000;
  const size_t threads = WorkThreads();
  // In the traced pass every page emits a dozen spans; a few batches
  // give thousands of samples per stage without a huge trace file.
  const size_t max_traced_batches = 3;

  // Set-up is corpus generation plus the concept set and recognizer the
  // pipeline reads; repeated and the median reported.
  std::vector<double> setup_s;
  Corpus corpus;
  std::unique_ptr<Domain> domain;
  webre::ThreadPool pool(threads);
  for (int rep = 0; rep < 15; ++rep) {
    domain.reset();
    const double t0 = webre::obs::MonotonicSeconds();
    corpus = MakeCorpus(args.seed, 0, pages, /*keep_truth=*/true, pool);
    domain = std::make_unique<Domain>();
    setup_s.push_back(webre::obs::MonotonicSeconds() - t0);
  }
  const webre::ConceptSet& concepts = domain->concepts;
  const webre::ConstraintSet& constraints = domain->constraints;
  const webre::SynonymRecognizer& recognizer = domain->recognizer;

  webre::PipelineOptions options;
  options.map_documents = true;
  options.keep_going = true;

  // Serial reference: the DTD and the digest every parallel batch must
  // reproduce, and the §4.1 error rate against the generator's truth.
  options.parallel.num_threads = 1;
  const webre::Pipeline serial(&concepts, &recognizer, &constraints, options);
  const webre::PipelineResult reference = serial.Run(corpus.html);
  const std::string reference_dtd = reference.dtd.ToString();
  const uint64_t reference_digest = BatchDigest(reference);
  double logical_errors = 0;
  double concept_nodes = 0;
  double output_bytes = 0;
  for (size_t i = 0; i < pages; ++i) {
    if (reference.documents[i] == nullptr) continue;
    const webre::AccuracyReport report =
        webre::CompareTrees(*reference.documents[i], *corpus.truth[i]);
    logical_errors += static_cast<double>(report.logical_errors);
    concept_nodes += static_cast<double>(report.concept_nodes);
    if (reference.mapped_documents[i] != nullptr) {
      output_bytes += static_cast<double>(
          webre::WriteXml(*reference.mapped_documents[i]).size());
    }
  }

  options.parallel.num_threads = threads;
  options.trace = tracer.collector();
  const webre::Pipeline pipeline(&concepts, &recognizer, &constraints, options);

  std::vector<double> batch_us;
  std::vector<double> batch_ok;  // 1 when answered correctly within the limit
  const double limit_us = kLimits.batch_us_per_page * static_cast<double>(pages);
  const CpuTicks ticks_before = ReadCpuTicks();
  const double deadline = webre::obs::MonotonicSeconds() + args.seconds;
  bool first = true;
  while (first || webre::obs::MonotonicSeconds() < deadline) {
    first = false;
    if (tracer.on() && batch_us.size() == max_traced_batches) break;
    const double t0 = webre::obs::MonotonicSeconds();
    const webre::PipelineResult result = pipeline.Run(corpus.html);
    const double t1 = webre::obs::MonotonicSeconds();
    tracer.Add("core.run", t0, t1);
    batch_us.push_back((t1 - t0) * 1e6);
    out.attempted += pages;
    bool ok = result.failed_documents == 0;
    out.failed += result.failed_documents;
    if (result.dtd.ToString() != reference_dtd ||
        BatchDigest(result) != reference_digest) {
      out.Fail("batch " + std::to_string(batch_us.size()) +
               ": DTD or documents differ from the serial reference");
      out.failed += pages - result.failed_documents;
      ok = false;
    }
    batch_ok.push_back(ok && batch_us.back() <= limit_us ? 1.0 : 0.0);
    if (batch_us.size() == 1) {
      LayerInputs& in = out.layers;
      for (const webre::ConvertStats& stats : result.convert_stats) {
        in.tokens += static_cast<double>(stats.tokens_created);
        in.instance_tokens += static_cast<double>(stats.instance.tokens_total);
        in.instance_identified +=
            static_cast<double>(stats.instance.tokens_identified);
      }
      in.docs_converted = static_cast<double>(pages - result.failed_documents);
      in.frequent_paths = static_cast<double>(result.mining_stats.frequent_paths);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double steal_frac = StealFrac(ticks_before, ReadCpuTicks());
  if (tracer.on()) {
    // Mapping cost, recomputed outside the timed batches.
    for (size_t i = 0; i < pages; ++i) {
      if (reference.documents[i] == nullptr) continue;
      const webre::ConformResult mapped = webre::ConformToSchema(
          *reference.documents[i], reference.schema, reference.dtd);
      out.layers.edit_cost += mapped.report.edit_distance;
      out.layers.docs_mapped += 1;
    }
    out.layers.threads = static_cast<double>(threads);
  }

  const double batches = static_cast<double>(batch_us.size());
  const auto slice_pct = [&](double p) {
    return [&batch_us, p](size_t b, size_t e) {
      return Percentile({batch_us.begin() + b, batch_us.begin() + e}, p);
    };
  };
  const double docs_per_s = static_cast<double>(pages) / (Median(batch_us) / 1e6);
  out.mean_op_us = Mean(batch_us);
  out.end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"throughput_per_s", docs_per_s, "1/s"},
      {"latency_p50_us", SliceMedian(batch_us.size(), slice_pct(50)), "us"},
      {"latency_p90_us", SliceMedian(batch_us.size(), slice_pct(90)), "us"},
      {"slo_ok_frac",
       SliceMedian(batch_us.size(),
                   [&](size_t b, size_t e) {
                     double ok = 0;
                     for (size_t i = b; i < e; ++i) ok += batch_ok[i];
                     return ok / static_cast<double>(e - b);
                   }),
       "frac"},
      {"ok_frac",
       1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       "frac"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"stored_bytes_per_input_byte",
       output_bytes / static_cast<double>(corpus.html_bytes), "ratio"},
  };
  out.detail = {
      {"batch_docs_per_s", docs_per_s, "1/s"},
      {"convert_error_pct",
       concept_nodes > 0 ? 100.0 * logical_errors / concept_nodes : 0.0, "%"},
      {"batches", batches, "count"},
      {"batch_p50_us", Percentile(batch_us, 50), "us"},
      {"batch_p90_us", Percentile(batch_us, 90), "us"},
      {"failed_frac", 1.0 - out.end_to_end[5].value, "frac"},
      {"host_steal_frac", steal_frac, "frac"},
  };
  out.header = {
      {"documents", std::to_string(pages) + " per batch"},
      {"html_bytes", std::to_string(corpus.html_bytes)},
      {"author_styles", std::to_string(corpus.styles)},
      {"workers", std::to_string(threads) + " pipeline threads"},
      {"offered", "closed loop, one batch at a time"},
      {"latency_limits", LimitsText()},
      {"map_documents", "true"},
      {"keep_going", "true"},
  };
  return out;
}

}  // namespace perfbench
