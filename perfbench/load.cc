#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "serve/client.h"

namespace perfbench {

using webre::serve::MsgType;

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n == 0 ? 1 : n);
  double sum = 0.0;
  for (size_t k = 0; k < cdf_.size(); ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(webre::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<PlannedRequest> MakeSchedule(const ScheduleOptions& options,
                                         uint64_t seed) {
  webre::Rng rng(seed);
  const Zipf zipf(options.query_count, options.zipf_s);
  std::vector<PlannedRequest> schedule;
  double t = 0.0;
  uint32_t next_ingest = 0;
  while (true) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / options.rate_per_s;
    if (t >= options.seconds) break;
    PlannedRequest request;
    request.at_s = t;
    const size_t ordinal = schedule.size() + 1;
    if (options.checkpoint_every > 0 && ordinal % options.checkpoint_every == 0) {
      request.type = MsgType::kCheckpoint;
    } else if (rng.NextBool(options.ingest_fraction)) {
      request.type = MsgType::kIngest;
      request.item = next_ingest++;
    } else {
      request.type = MsgType::kQuery;
      request.item = static_cast<uint32_t>(zipf.Sample(rng));
    }
    schedule.push_back(request);
  }
  return schedule;
}

std::vector<Outcome> Drive(
    const std::vector<PlannedRequest>& schedule, const DriveOptions& options,
    const std::function<const std::string&(const PlannedRequest&)>& body_of) {
  const size_t n = schedule.size();
  const size_t connections = std::max<size_t>(1, options.connections);
  std::vector<Outcome> outcomes(n);
  std::vector<std::unique_ptr<webre::serve::Client>> clients(connections);
  for (size_t c = 0; c < connections; ++c) {
    auto client = webre::serve::Client::Connect(options.port);
    if (client.ok()) clients[c] = std::move(client).value();
  }

  std::atomic<size_t> answered{0};
  const double start_s = webre::obs::MonotonicSeconds() + 0.05;
  for (size_t i = 0; i < n; ++i) {
    outcomes[i].scheduled_s = start_s + schedule[i].at_s;
  }
  const auto steady_at = [](double mono_s) {
    // obs::MonotonicSeconds is steady_clock based.
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(mono_s)));
  };

  std::vector<std::thread> senders;
  std::vector<std::thread> receivers;
  for (size_t c = 0; c < connections; ++c) {
    webre::serve::Client* client = clients[c].get();
    if (client == nullptr) continue;
    senders.emplace_back([&, c, client] {
      for (size_t i = c; i < n; i += connections) {
        std::this_thread::sleep_until(steady_at(outcomes[i].scheduled_s));
        webre::serve::Request request;
        request.type = schedule[i].type;
        request.id = static_cast<uint32_t>(i + 1);
        if (request.type == MsgType::kQuery || request.type == MsgType::kIngest) {
          request.body = body_of(schedule[i]);
        }
        outcomes[i].sent_s = webre::obs::MonotonicSeconds();
        if (!client->Send(request).ok()) return;
      }
    });
    receivers.emplace_back([&, c, client] {
      const size_t expected = (n - c + connections - 1) / connections;
      for (size_t got = 0; got < expected; ++got) {
        auto response = client->Receive();
        const double now = webre::obs::MonotonicSeconds();
        if (!response.ok()) return;
        const size_t i = static_cast<size_t>(response->id) - 1;
        if (response->id == 0 || i >= n || i % connections != c ||
            outcomes[i].answered) {
          continue;  // unsolicited or duplicate frame: not an answer
        }
        Outcome& out = outcomes[i];
        out.done_s = now;
        out.answered = true;
        out.error = response->error;
        out.doc_id = response->doc_id;
        if (response->ok() && response->type == MsgType::kQuery) {
          out.total_matches = response->total_matches;
          out.digest = AnswerDigest(response->total_matches, response->matches);
        }
        if (options.trace != nullptr) {
          options.trace->AddSpan("client.request", "client", out.scheduled_s,
                                 now, i);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : senders) t.join();
  // Answers still missing this long after the last scheduled send count
  // as unanswered.
  constexpr double kDrainSeconds = 10.0;
  const double deadline_s =
      start_s + (n > 0 ? schedule.back().at_s : 0.0) + kDrainSeconds;
  while (answered.load(std::memory_order_relaxed) < n &&
         webre::obs::MonotonicSeconds() < deadline_s &&
         !receivers.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (answered.load(std::memory_order_relaxed) < n && options.abort) {
    options.abort();
  }
  for (std::thread& t : receivers) t.join();
  return outcomes;
}

}  // namespace perfbench
