// The benchmark's own open-loop load generator.
//
// The request sequence is fixed before the clock starts: Poisson
// arrivals at a stated rate, a request type per arrival, and a Zipf
// draw over the query set. The generator then replays it over a few
// connections, one sender and one receiver thread each, and times every
// request from its SCHEDULED send, so a stall is charged to every
// request queued behind it (serve::RunLoadgen times from the actual
// send, which hides that).
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "serve/frame.h"
#include "util/rng.h"

namespace perfbench {

/// Zipf(s) over ranks 0..n-1: P(k) proportional to 1 / (k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(webre::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

struct ScheduleOptions {
  double rate_per_s = 1000.0;
  double seconds = 10.0;
  /// Share of non-checkpoint requests that are kIngest.
  double ingest_fraction = 0.0;
  /// Every K-th scheduled request (1-based) is a kCheckpoint; 0 = never.
  size_t checkpoint_every = 0;
  size_t query_count = 1;
  double zipf_s = 1.0;
};

struct PlannedRequest {
  /// Scheduled send, seconds after the load starts.
  double at_s = 0.0;
  webre::serve::MsgType type = webre::serve::MsgType::kQuery;
  /// kQuery: index into the query set. kIngest: index of the ingest body
  /// (ingest bodies are consumed in order and never repeat).
  uint32_t item = 0;
};

/// Deterministic in (options, seed).
std::vector<PlannedRequest> MakeSchedule(const ScheduleOptions& options,
                                         uint64_t seed);

/// What happened to one scheduled request. Times are obs::MonotonicSeconds.
struct Outcome {
  double scheduled_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool answered = false;
  webre::serve::WireError error = webre::serve::WireError::kNone;
  uint64_t doc_id = 0;
  /// kQuery: AnswerDigest of the response.
  uint64_t digest = 0;
  uint64_t total_matches = 0;

  double latency_us() const { return (done_s - scheduled_s) * 1e6; }
  bool ok() const {
    return answered && error == webre::serve::WireError::kNone;
  }
};

struct DriveOptions {
  uint16_t port = 0;
  size_t connections = 2;
  /// Called from the driving thread when the drain deadline passes with
  /// answers outstanding; it must make blocked receivers return (the
  /// benchmark stops the server, which closes every connection).
  std::function<void()> abort;
  /// When set, each answer is recorded as a "client.request" span from
  /// its scheduled send to its arrival, tagged with the request index.
  webre::obs::TraceCollector* trace = nullptr;
};

/// Replays `schedule`; `body_of` returns the payload of a request.
/// Request ids are the schedule index + 1, unique across connections.
/// Returns one Outcome per scheduled request, in schedule order.
std::vector<Outcome> Drive(
    const std::vector<PlannedRequest>& schedule, const DriveOptions& options,
    const std::function<const std::string&(const PlannedRequest&)>& body_of);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
