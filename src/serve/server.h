#ifndef WEBRE_SERVE_SERVER_H_
#define WEBRE_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "repository/repository.h"
#include "restructure/converter.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/frame.h"
#include "serve/ring.h"
#include "storage/durable_repository.h"
#include "util/resource_limits.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace webre {
namespace serve {

/// Tunables of the serving front end (CLI: `webre serve`, docs/CLI.md).
struct ServeOptions {
  /// TCP port to listen on (loopback). 0 picks an ephemeral port —
  /// read it back from Server::port() after Start.
  uint16_t port = 0;
  /// Event-loop (reactor) threads. Each loop owns its own epoll fd and
  /// a disjoint subset of the connections; accepted fds are handed out
  /// round-robin by the acceptor on loop 0. 0 = min(4, hardware
  /// threads) (CLI: --loops). `--loops 1` reproduces the single-reactor
  /// behavior exactly (same connection ids, same bytes on the wire).
  size_t loops = 0;
  /// Concurrent connections accepted ACROSS ALL LOOPS; the (n+1)-th
  /// client is answered with one kOverloaded error frame and closed
  /// (CLI: --max-clients).
  size_t max_clients = 64;
  /// Requests dispatched to workers but not yet answered, server-wide.
  /// Beyond this the server sheds instead of queueing without bound.
  size_t max_in_flight = 128;
  /// Byte cap of the generation-keyed query-result cache; 0 disables
  /// (CLI: --cache-bytes). The cache is striped into 2*loops
  /// independently-locked stripes; the cap is the total budget.
  size_t cache_bytes = 8u << 20;
  /// Worker threads executing requests (event loops never block on
  /// repository work). 0 means one per hardware thread.
  size_t worker_threads = 2;
  /// Per-connection request quota: a token bucket refilling at
  /// `per_client_qps` with `per_client_burst` capacity. <= 0 disables.
  double per_client_qps = 0.0;
  double per_client_burst = 32.0;
  /// Matches serialized into one query response (total_matches always
  /// reports the full count).
  size_t max_results = 100;
  /// Byte/step budgets for request handling. max_input_bytes doubles
  /// as the frame-payload cap, enforced on the ANNOUNCED length before
  /// any payload byte is buffered.
  ResourceLimits limits;
  /// Test seam: runs on the worker just before a request executes.
  /// A throwing hook exercises the worker-failure surface (the client
  /// sees a kInternal error carrying the message).
  std::function<void(const Request&)> before_execute;
};

/// What the server serves. `repo` is required. When `durable` is set it
/// must own `repo` (ingest then goes through the WAL and kCheckpoint
/// works); otherwise checkpoint requests fail with kFailedPrecondition.
/// `converter` powers kIngest (HTML in, document admitted); without one
/// ingest fails with kFailedPrecondition. Borrowed pointers — they must
/// outlive the server.
struct ServeContext {
  XmlRepository* repo = nullptr;
  storage::DurableRepository* durable = nullptr;
  const DocumentConverter* converter = nullptr;
};

/// One event loop's counter snapshot (the kStats endpoint exposes the
/// per-loop breakdown; --metrics-json carries the aggregates).
struct LoopStats {
  uint64_t accepted_connections = 0;  ///< connections this loop adopted
  uint64_t active_connections = 0;    ///< currently owned by this loop
  uint64_t requests = 0;              ///< requests decoded on this loop
  uint64_t shed_requests = 0;         ///< shed by this loop's admission
  uint64_t wakeups = 0;               ///< eventfd rings delivered to it
  uint64_t wakeups_coalesced = 0;     ///< rings suppressed (ring not empty)
  uint64_t handoffs = 0;              ///< connections posted to it by the
                                      ///< acceptor (cross-loop adopts)
  uint64_t completions = 0;           ///< worker responses posted to it
};

/// Point-in-time server counters plus the cache footprint.
struct ServerStats {
  obs::ServeStatsView view;
  size_t cache_bytes = 0;
  size_t active_connections = 0;
  /// Per-loop breakdown, one entry per event loop.
  std::vector<LoopStats> loops;
};

/// The network serving front end: N epoll event loops ("reactors") each
/// owning a disjoint set of connections, a ThreadPool executing
/// requests, and admission control shedding load before it queues
/// (DESIGN.md §16).
///
/// Threading model — chosen so the server is data-race-free by
/// construction, not by locking:
///   - Each LOOP THREAD owns all state of ITS connections (buffers,
///     decoders, token buckets). No other thread ever touches them.
///     Loop 0 additionally owns the listening socket; accepted fds are
///     dealt round-robin — a cross-loop handoff posts the raw fd
///     through the target loop's ring, and the target constructs the
///     Connection itself, so ownership never straddles threads.
///   - WORKERS receive a Request BY VALUE, execute it against the
///     repository (whose own synchronization covers concurrent access),
///     and post the fully encoded response bytes to the owning loop's
///     bounded MPSC ring (lock-free; see serve/ring.h). The loop's
///     eventfd is rung only on the ring's empty→non-empty transition —
///     every suppressed ring is counted in serve.wakeups_coalesced.
///   - The loop drains its ring, batches all responses queued for a
///     connection in one drain into a single writev, and drops by id
///     lookup completions for connections that closed meanwhile.
/// Shared mutable state is limited to the rings (lock-free), the
/// atomic counters, and the striped result cache.
///
/// Both wire faces (binary frames, JSON-lines debug) are handled; a
/// connection whose first byte is '{' speaks JSON. Protocol reference:
/// docs/SERVING.md.
class Server {
 public:
  Server(ServeContext context, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the loops + workers. kInternal on socket
  /// errors (message carries errno text).
  Status Start();

  /// Stops accepting, closes every connection, joins loops and workers.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (meaningful after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// The resolved event-loop count (meaningful after Start).
  size_t loops() const { return loops_.size(); }

  ServerStats stats() const;

  /// Executes one request against the context, bypassing the network —
  /// the exact function workers run. Public so endpoint logic is
  /// testable without sockets, and reused by the in-process bench.
  Response Execute(const Request& request);

 private:
  struct Connection;

  /// One ring entry: either a worker completion (`bytes` for `conn_id`)
  /// or a connection handoff from the acceptor (`adopt_fd` >= 0).
  struct LoopEvent {
    uint64_t conn_id = 0;
    int adopt_fd = -1;
    std::string bytes;
  };

  /// One reactor: epoll set, wake eventfd, owned connections, and the
  /// MPSC ring other threads reach it through. `connections`,
  /// `next_seq` and `dirty` are loop-thread-only; the ring and the
  /// counters are the only cross-thread surface.
  struct Loop {
    // Out of line: Connection is incomplete here, and the implicit
    // special members would instantiate the map's destructor.
    Loop(size_t index_in, size_t ring_capacity);
    ~Loop();

    size_t index;
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;

    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections;
    uint64_t next_seq = 1;  ///< conn id = index + num_loops * next_seq
    /// Connections with output queued during the current drain/read
    /// round; flushed (one writev each) at the end of the round.
    std::vector<uint64_t> dirty;

    MpscRing<LoopEvent> ring;
    /// Events posted but not yet popped. A producer that moves this
    /// 0 -> 1 rings the eventfd; the loop never blocks while it is
    /// non-zero (see DrainEvents for the no-lost-wakeup argument).
    alignas(64) std::atomic<size_t> pending{0};

    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> active{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> wakeups_coalesced{0};
    std::atomic<uint64_t> handoffs{0};
    std::atomic<uint64_t> completions{0};
  };

  void LoopThread(Loop& loop);
  void AcceptReady(Loop& loop);
  /// Takes ownership of an accepted fd on `loop`'s thread: registers it
  /// with the loop's epoll and creates the Connection.
  void AdoptConnection(Loop& loop, int fd);
  /// Reads and processes one connection's input. Returns false when the
  /// connection should be closed.
  bool ReadReady(Loop& loop, Connection& conn);
  bool WriteReady(Loop& loop, Connection& conn);
  /// Runs admission and dispatches (or sheds) one decoded request.
  void HandleRequest(Loop& loop, Connection& conn, Request request);
  /// Worker body: execute, encode, complete.
  void RunRequest(uint64_t conn_id, bool json_mode, Request request);
  /// Posts an event to `loop`'s ring, ringing its eventfd only on the
  /// empty→non-empty transition.
  void PostEvent(Loop& loop, LoopEvent event);
  void PushCompletion(uint64_t conn_id, std::string bytes);
  /// Drains the loop's ring: adopts handed-off connections and queues
  /// completions on their connections (flush happens in FlushDirty).
  void DrainEvents(Loop& loop);
  /// Queues `bytes` on `conn` and marks it dirty for the round's flush.
  void QueueOutput(Loop& loop, Connection& conn, std::string bytes);
  /// One writev per dirty connection; half-closes drained closing ones.
  void FlushDirty(Loop& loop);
  /// Writes as far as the socket allows (single writev per call while
  /// the socket keeps accepting). Returns false on hard error.
  bool FlushOutput(Loop& loop, Connection& conn);
  /// Shuts down a closing connection's write side once its answer is
  /// flushed (Connection::closing).
  void ShutdownWhenFlushed(Connection& conn);
  void CloseConnection(Loop& loop, uint64_t conn_id);
  void UpdateEpoll(Loop& loop, Connection& conn);
  Loop& LoopOf(uint64_t conn_id) {
    return *loops_[conn_id % loops_.size()];
  }

  /// The kQuery endpoint: encoded response body through the cache.
  StatusOr<std::string> QueryBody(const std::string& query_text);
  Response ErrorResponse(uint32_t id, WireError error, std::string message,
                         uint32_t retry_after_ms = 0) const;

  ServeContext context_;
  ServeOptions options_;
  QueryCache cache_;
  InFlightGate gate_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<Loop>> loops_;
  /// Acceptor-thread-only (loop 0): next handoff target, round-robin.
  size_t next_loop_ = 0;
  /// Connections open across all loops — the --max-clients gate.
  std::atomic<size_t> total_active_{0};

  std::unique_ptr<ThreadPool> workers_;

  obs::Counter errors_;
  obs::Histogram request_us_;
};

/// Resolves ServeOptions::loops (0 = min(4, hardware threads)).
size_t ResolveLoops(size_t requested);

}  // namespace serve
}  // namespace webre

#endif  // WEBRE_SERVE_SERVER_H_
