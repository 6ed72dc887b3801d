#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <utility>

#include "schema/dtd_builder.h"
#include "schema/frequent_paths.h"

namespace webre {
namespace serve {

namespace {

/// epoll user-data ids for the two non-connection descriptors. Real
/// connection ids are loop_index + num_loops * seq with seq >= 1, so
/// they never collide with kListenId.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = ~uint64_t{0};

/// writev batch width per flush round (IOV_MAX is much larger; 64
/// already amortizes the syscall across a full drain's responses).
constexpr int kMaxIov = 64;

/// Input a closing connection discards before it is closed outright
/// (see Connection::closing).
constexpr size_t kMaxDiscardBytes = size_t{16} << 20;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void AppendJsonKv(std::string& out, const char* key, uint64_t value,
                  bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
  if (comma) out += ',';
}

}  // namespace

size_t ResolveLoops(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(4, hw == 0 ? 1 : hw);
}

/// All fields are loop-thread-only (see the class comment).
struct Server::Connection {
  Connection(uint64_t id_in, int fd_in, size_t max_frame_bytes,
             double per_client_qps, double per_client_burst)
      : id(id_in),
        fd(fd_in),
        decoder(max_frame_bytes),
        bucket(per_client_qps, per_client_burst) {}

  uint64_t id;
  int fd;
  /// Unset until the first byte arrives; '{' selects JSON-lines mode.
  bool mode_known = false;
  bool json_mode = false;
  FrameDecoder decoder;
  /// JSON mode: bytes of the (possibly partial) current line.
  std::string json_buffer;
  /// Pending output chunks, oldest first. The front chunk's first
  /// `out_head` bytes are already on the wire; `out_bytes` is the
  /// total still to write across all chunks. Kept as chunks (not one
  /// string) so a flush is one writev with zero copying.
  std::deque<std::string> out;
  size_t out_head = 0;
  size_t out_bytes = 0;
  bool want_write = false;
  /// Set after a kBadFrame error: input is discarded from then on, and
  /// once the answer is flushed the write side is shut down
  /// (`write_shut`). The connection closes when the peer does, or after
  /// kMaxDiscardBytes of discarded input — so a client still sending
  /// the rejected frame reads the answer and then EOF, not a reset that
  /// closing with its bytes unread would send.
  bool closing = false;
  bool write_shut = false;
  size_t discarded = 0;
  /// Already on the loop's dirty list this round.
  bool dirty = false;
  TokenBucket bucket;
};

Server::Loop::Loop(size_t index_in, size_t ring_capacity)
    : index(index_in), ring(ring_capacity) {}

Server::Loop::~Loop() = default;

Server::Server(ServeContext context, ServeOptions options)
    : context_(context),
      options_(std::move(options)),
      cache_(options_.cache_bytes, 2 * ResolveLoops(options_.loops)),
      gate_(options_.max_in_flight) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (context_.repo == nullptr) {
    return Status::InvalidArgument("ServeContext.repo is required");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  const size_t num_loops = ResolveLoops(options_.loops);
  // Sized so TryPush cannot fail in steady state: at most max_in_flight
  // completions are outstanding (the gate releases before the push, so
  // workers can briefly overshoot by worker_threads), plus max_clients
  // possible handoffs queued at once.
  const size_t ring_capacity = options_.max_in_flight + options_.max_clients +
                               options_.worker_threads + 16;
  loops_.clear();
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(i, ring_capacity));
  }
  for (auto& loop : loops_) {
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) return Errno("epoll_create1");
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) return Errno("eventfd");
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = kWakeId;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &event);
  }
  // Single acceptor: only loop 0 watches the listening socket and deals
  // accepted fds round-robin (cross-loop via the target's ring).
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenId;
  ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &event);

  workers_ = std::make_unique<ThreadPool>(options_.worker_threads);
  stopping_.store(false, std::memory_order_release);
  next_loop_ = 0;
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { LoopThread(*raw); });
  }
  started_ = true;
  return Status::Ok();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  for (auto& loop : loops_) {
    [[maybe_unused]] ssize_t n = ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Workers may still be finishing requests; their completions land in
  // the rings and are simply never delivered.
  workers_->Wait();
  workers_.reset();
  for (auto& loop : loops_) {
    LoopEvent event;
    while (loop->ring.TryPop(event)) {
      if (event.adopt_fd >= 0) ::close(event.adopt_fd);
    }
    for (auto& [id, conn] : loop->connections) ::close(conn->fd);
    loop->connections.clear();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
    loop->epoll_fd = loop->wake_fd = -1;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

ServerStats Server::stats() const {
  ServerStats stats;
  for (const auto& loop : loops_) {
    LoopStats entry;
    entry.accepted_connections =
        loop->accepted.load(std::memory_order_relaxed);
    entry.active_connections = loop->active.load(std::memory_order_relaxed);
    entry.requests = loop->requests.load(std::memory_order_relaxed);
    entry.shed_requests = loop->shed.load(std::memory_order_relaxed);
    entry.wakeups = loop->wakeups.load(std::memory_order_relaxed);
    entry.wakeups_coalesced =
        loop->wakeups_coalesced.load(std::memory_order_relaxed);
    entry.handoffs = loop->handoffs.load(std::memory_order_relaxed);
    entry.completions = loop->completions.load(std::memory_order_relaxed);
    stats.view.accepted_connections += entry.accepted_connections;
    stats.view.active_connections += entry.active_connections;
    stats.view.requests += entry.requests;
    stats.view.shed_requests += entry.shed_requests;
    stats.view.wakeups += entry.wakeups;
    stats.view.wakeups_coalesced += entry.wakeups_coalesced;
    stats.view.handoffs += entry.handoffs;
    stats.loops.push_back(entry);
  }
  stats.view.loops = loops_.size();
  stats.view.errors = errors_.value();
  stats.view.cache_hits = cache_.hits();
  stats.view.cache_misses = cache_.misses();
  stats.view.cache_evictions = cache_.evictions();
  stats.view.max_queue_depth = gate_.high_water();
  stats.view.request_us = request_us_.Snapshot();
  stats.cache_bytes = cache_.bytes();
  stats.active_connections = stats.view.active_connections;
  return stats;
}

void Server::LoopThread(Loop& loop) {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Never block while ring events are pending (or a producer is
    // mid-publish): a producer increments `pending` BEFORE its push, so
    // a non-zero read here covers entries TryPop cannot see yet — the
    // no-lost-wakeup half of the coalescing argument (DESIGN.md §16).
    const int timeout_ms =
        loop.pending.load(std::memory_order_acquire) > 0 ? 0 : 100;
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptReady(loop);
        continue;
      }
      if (id == kWakeId) {
        uint64_t drain = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drain, sizeof(drain));
        continue;  // the ring itself is drained below
      }
      auto it = loop.connections.find(id);
      if (it == loop.connections.end()) continue;  // closed this batch
      Connection& conn = *it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        alive = false;
      } else {
        if ((events[i].events & EPOLLIN) != 0) alive = ReadReady(loop, conn);
        if (alive && (events[i].events & EPOLLOUT) != 0) {
          alive = WriteReady(loop, conn);
        }
      }
      if (!alive) CloseConnection(loop, id);
    }
    DrainEvents(loop);
    FlushDirty(loop);
  }
}

void Server::AcceptReady(Loop& loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for epoll
    // Responses are written whole; disable Nagle so a small response is
    // not held back waiting for the client's delayed ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (total_active_.load(std::memory_order_relaxed) >=
        options_.max_clients) {
      // Connection-cap shed: one typed error frame, then close. The
      // frame is binary regardless of the mode the client intended —
      // it never got to send its first byte.
      loop.shed.fetch_add(1, std::memory_order_relaxed);
      Response response = ErrorResponse(
          0, WireError::kOverloaded,
          "connection cap (max_clients=" +
              std::to_string(options_.max_clients) + ") reached",
          /*retry_after_ms=*/50);
      std::string bytes;
      EncodeResponse(response, bytes);
      [[maybe_unused]] ssize_t n =
          ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    total_active_.fetch_add(1, std::memory_order_relaxed);
    Loop& target = *loops_[next_loop_];
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (&target == &loop) {
      AdoptConnection(loop, fd);
    } else {
      target.handoffs.fetch_add(1, std::memory_order_relaxed);
      LoopEvent event;
      event.adopt_fd = fd;
      PostEvent(target, std::move(event));
    }
  }
}

void Server::AdoptConnection(Loop& loop, int fd) {
  const uint64_t id = loop.index + loops_.size() * loop.next_seq++;
  auto conn = std::make_unique<Connection>(
      id, fd, options_.limits.max_input_bytes, options_.per_client_qps,
      options_.per_client_burst);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = id;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &event);
  loop.connections.emplace(id, std::move(conn));
  loop.accepted.fetch_add(1, std::memory_order_relaxed);
  loop.active.fetch_add(1, std::memory_order_relaxed);
}

bool Server::ReadReady(Loop& loop, Connection& conn) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (conn.closing) {
      conn.discarded += static_cast<size_t>(n);
      if (conn.discarded > kMaxDiscardBytes) return false;
      continue;
    }
    std::string_view bytes(buffer, static_cast<size_t>(n));
    if (!conn.mode_known) {
      conn.mode_known = true;
      conn.json_mode = bytes.front() == '{';
    }
    if (conn.json_mode) {
      conn.json_buffer.append(bytes);
      if (conn.json_buffer.size() > options_.limits.max_input_bytes) {
        Response response = ErrorResponse(
            0, WireError::kBadFrame, "debug request line exceeds frame cap");
        QueueOutput(loop, conn, ResponseToJsonLine(response) + "\n");
        conn.closing = true;
        break;
      }
      size_t start = 0;
      for (size_t nl = conn.json_buffer.find('\n', start);
           nl != std::string::npos;
           nl = conn.json_buffer.find('\n', start)) {
        const std::string_view line(conn.json_buffer.data() + start,
                                    nl - start);
        start = nl + 1;
        if (line.empty()) continue;
        Request request;
        const Status status = ParseJsonRequest(line, request);
        if (!status.ok()) {
          Response response = ErrorResponse(0, WireError::kBadFrame,
                                            status.message());
          QueueOutput(loop, conn, ResponseToJsonLine(response) + "\n");
          conn.closing = true;
          break;
        }
        HandleRequest(loop, conn, std::move(request));
      }
      conn.json_buffer.erase(0, start);
      if (conn.closing) break;
    } else {
      conn.decoder.Append(bytes);
      for (;;) {
        Request request;
        const FrameStatus status = conn.decoder.NextRequest(request);
        if (status == FrameStatus::kNeedMore) break;
        if (status == FrameStatus::kBad) {
          // Framing is unrecoverable: answer with the typed error and
          // close once it drains (docs/SERVING.md, error taxonomy).
          Response response = ErrorResponse(0, WireError::kBadFrame,
                                            conn.decoder.error());
          std::string encoded;
          EncodeResponse(response, encoded);
          QueueOutput(loop, conn, std::move(encoded));
          conn.closing = true;
          break;
        }
        HandleRequest(loop, conn, std::move(request));
      }
      if (conn.closing) break;
    }
  }
  ShutdownWhenFlushed(conn);
  return true;
}

bool Server::WriteReady(Loop& loop, Connection& conn) {
  if (!FlushOutput(loop, conn)) return false;
  ShutdownWhenFlushed(conn);
  return true;
}

void Server::ShutdownWhenFlushed(Connection& conn) {
  if (conn.closing && conn.out_bytes == 0 && !conn.write_shut) {
    ::shutdown(conn.fd, SHUT_WR);
    conn.write_shut = true;
  }
}

void Server::HandleRequest(Loop& loop, Connection& conn, Request request) {
  loop.requests.fetch_add(1, std::memory_order_relaxed);
  Admission admission = conn.bucket.Admit(obs::MonotonicSeconds());
  if (admission.admitted) admission = gate_.TryAcquire();
  if (!admission.admitted) {
    loop.shed.fetch_add(1, std::memory_order_relaxed);
    Response response = ErrorResponse(
        request.id, WireError::kOverloaded,
        std::string("shed by ") + admission.reason + " admission control",
        admission.retry_after_ms);
    if (conn.json_mode) {
      QueueOutput(loop, conn, ResponseToJsonLine(response) + "\n");
    } else {
      std::string encoded;
      EncodeResponse(response, encoded);
      QueueOutput(loop, conn, std::move(encoded));
    }
    return;
  }
  // Admitted: workers own the request from here; the gate slot is
  // released by RunRequest.
  const uint64_t conn_id = conn.id;
  const bool json_mode = conn.json_mode;
  workers_->Submit([this, conn_id, json_mode,
                    request = std::move(request)]() mutable {
    RunRequest(conn_id, json_mode, std::move(request));
  });
}

void Server::RunRequest(uint64_t conn_id, bool json_mode, Request request) {
  const double begin_s = obs::MonotonicSeconds();
  std::string bytes;
  Response response;
  bool encoded = false;
  // The library is exception-free, but the runtime is not (bad_alloc
  // above all) and the before_execute test seam may throw: a worker
  // failure becomes a kInternal response instead of a silent drop —
  // the same message ThreadPool would have recorded.
  try {
    if (options_.before_execute) options_.before_execute(request);
    if (!json_mode && request.type == MsgType::kQuery) {
      // Binary fast path: the cached encoded BODY is reused verbatim;
      // only the 12-byte header is stamped per request.
      StatusOr<std::string> body = QueryBody(request.body);
      if (body.ok()) {
        EncodeResponseHeader(MsgType::kQuery, request.id, body.value().size(),
                             bytes);
        bytes += body.value();
        encoded = true;
      } else {
        response = ErrorResponse(request.id, StatusToWireError(body.status()),
                                 body.status().message());
      }
    } else {
      response = Execute(request);
    }
  } catch (const std::exception& e) {
    response = ErrorResponse(request.id, WireError::kInternal,
                             std::string("worker task failed: ") + e.what());
    encoded = false;
    bytes.clear();
  } catch (...) {
    response = ErrorResponse(request.id, WireError::kInternal,
                             "worker task failed: unknown exception");
    encoded = false;
    bytes.clear();
  }
  gate_.Release();
  if (!encoded) {
    if (!response.ok()) errors_.Increment();
    if (json_mode) {
      bytes = ResponseToJsonLine(response) + "\n";
    } else {
      EncodeResponse(response, bytes);
    }
  }
  request_us_.Record(
      static_cast<uint64_t>((obs::MonotonicSeconds() - begin_s) * 1e6));
  PushCompletion(conn_id, std::move(bytes));
}

void Server::PostEvent(Loop& loop, LoopEvent event) {
  // `pending` goes up BEFORE the push so the consumer, which subtracts
  // only what it actually popped, can never read 0 while an entry is
  // published-but-unseen. Ringing only on 0 -> 1 is what makes the
  // eventfd write per-batch instead of per-completion. The wakeup
  // counters move before the push too: once the loop can pop the event
  // (and answer the request) the event is already counted, so a client
  // that has every response sees counters that add up.
  const size_t prev = loop.pending.fetch_add(1, std::memory_order_acq_rel);
  (prev == 0 ? loop.wakeups : loop.wakeups_coalesced)
      .fetch_add(1, std::memory_order_relaxed);
  while (!loop.ring.TryPush(event)) {
    // The ring is sized for the in-flight gate + handoff worst case, so
    // this is defensive only (the consumer is draining concurrently).
    std::this_thread::yield();
  }
  if (prev == 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
  }
}

void Server::PushCompletion(uint64_t conn_id, std::string bytes) {
  Loop& loop = LoopOf(conn_id);
  loop.completions.fetch_add(1, std::memory_order_relaxed);
  LoopEvent event;
  event.conn_id = conn_id;
  event.bytes = std::move(bytes);
  PostEvent(loop, std::move(event));
}

void Server::DrainEvents(Loop& loop) {
  size_t drained = 0;
  LoopEvent event;
  while (loop.ring.TryPop(event)) {
    ++drained;
    if (event.adopt_fd >= 0) {
      AdoptConnection(loop, event.adopt_fd);
      continue;
    }
    auto it = loop.connections.find(event.conn_id);
    if (it == loop.connections.end()) continue;  // closed mid-flight
    QueueOutput(loop, *it->second, std::move(event.bytes));
  }
  if (drained > 0) {
    loop.pending.fetch_sub(drained, std::memory_order_acq_rel);
  }
}

void Server::QueueOutput(Loop& loop, Connection& conn, std::string bytes) {
  if (bytes.empty()) return;
  conn.out_bytes += bytes.size();
  conn.out.push_back(std::move(bytes));
  if (!conn.dirty) {
    conn.dirty = true;
    loop.dirty.push_back(conn.id);
  }
}

void Server::FlushDirty(Loop& loop) {
  if (loop.dirty.empty()) return;
  for (const uint64_t id : loop.dirty) {
    auto it = loop.connections.find(id);
    if (it == loop.connections.end()) continue;  // closed after queueing
    Connection& conn = *it->second;
    conn.dirty = false;
    if (!FlushOutput(loop, conn)) {
      CloseConnection(loop, id);
      continue;
    }
    ShutdownWhenFlushed(conn);
  }
  loop.dirty.clear();
}

bool Server::FlushOutput(Loop& loop, Connection& conn) {
  while (conn.out_bytes > 0) {
    iovec iov[kMaxIov];
    int iov_count = 0;
    size_t head = conn.out_head;
    for (const std::string& chunk : conn.out) {
      if (iov_count == kMaxIov) break;
      iov[iov_count].iov_base = const_cast<char*>(chunk.data()) + head;
      iov[iov_count].iov_len = chunk.size() - head;
      head = 0;
      ++iov_count;
    }
    // sendmsg rather than writev for MSG_NOSIGNAL: a peer that closed
    // mid-response must surface as EPIPE (handled below), not SIGPIPE.
    msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          UpdateEpoll(loop, conn);
        }
        return true;  // epoll will deliver EPOLLOUT
      }
      return false;  // hard error: caller closes
    }
    size_t left = static_cast<size_t>(n);
    conn.out_bytes -= left;
    while (left > 0) {
      std::string& front = conn.out.front();
      const size_t avail = front.size() - conn.out_head;
      if (left >= avail) {
        left -= avail;
        conn.out.pop_front();
        conn.out_head = 0;
      } else {
        conn.out_head += left;
        left = 0;
      }
    }
  }
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(loop, conn);
  }
  return true;
}

void Server::CloseConnection(Loop& loop, uint64_t conn_id) {
  auto it = loop.connections.find(conn_id);
  if (it == loop.connections.end()) return;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  loop.connections.erase(it);
  loop.active.fetch_sub(1, std::memory_order_relaxed);
  total_active_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::UpdateEpoll(Loop& loop, Connection& conn) {
  epoll_event event{};
  event.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
  event.data.u64 = conn.id;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
}

StatusOr<std::string> Server::QueryBody(const std::string& query_text) {
  return CachedQueryBody(*context_.repo, cache_, query_text,
                         options_.max_results);
}

Response Server::ErrorResponse(uint32_t id, WireError error,
                               std::string message,
                               uint32_t retry_after_ms) const {
  Response response;
  response.type = MsgType::kError;
  response.id = id;
  response.error = error;
  response.message = std::move(message);
  response.retry_after_ms = retry_after_ms;
  return response;
}

Response Server::Execute(const Request& request) {
  Response response;
  response.id = request.id;
  response.type = request.type;
  switch (request.type) {
    case MsgType::kPing:
      break;
    case MsgType::kIngest: {
      if (context_.converter == nullptr) {
        return ErrorResponse(request.id, WireError::kFailedPrecondition,
                             "server has no document converter");
      }
      StatusOr<std::unique_ptr<Node>> tree =
          context_.converter->TryConvert(request.body);
      if (!tree.ok()) {
        return ErrorResponse(request.id, StatusToWireError(tree.status()),
                             tree.status().message());
      }
      StatusOr<DocId> id =
          context_.durable != nullptr
              ? context_.durable->Add(std::move(tree.value()))
              : context_.repo->Add(std::move(tree.value()));
      if (!id.ok()) {
        return ErrorResponse(request.id, StatusToWireError(id.status()),
                             id.status().message());
      }
      response.doc_id = id.value();
      break;
    }
    case MsgType::kQuery: {
      StatusOr<std::string> body = QueryBody(request.body);
      if (!body.ok()) {
        return ErrorResponse(request.id, StatusToWireError(body.status()),
                             body.status().message());
      }
      if (!DecodeResponseBody(body.value(), response)) {
        return ErrorResponse(request.id, WireError::kInternal,
                             "self-encoded query body failed to decode");
      }
      break;
    }
    case MsgType::kSchema: {
      const MajoritySchema schema = context_.repo->DiscoverSchema();
      response.schema_text = schema.ToString();
      response.dtd_text = BuildDtd(schema).ToString(/*attlist=*/false);
      break;
    }
    case MsgType::kStats: {
      const ServerStats server = stats();
      const RepositoryStats repo = context_.repo->Stats();
      std::string json = "{\"serve\":{";
      AppendJsonKv(json, "accepted_connections",
                   server.view.accepted_connections);
      AppendJsonKv(json, "active_connections", server.view.active_connections);
      AppendJsonKv(json, "requests", server.view.requests);
      AppendJsonKv(json, "shed_requests", server.view.shed_requests);
      AppendJsonKv(json, "errors", server.view.errors);
      AppendJsonKv(json, "cache_hits", server.view.cache_hits);
      AppendJsonKv(json, "cache_misses", server.view.cache_misses);
      AppendJsonKv(json, "cache_evictions", server.view.cache_evictions);
      AppendJsonKv(json, "cache_bytes", server.cache_bytes);
      AppendJsonKv(json, "max_queue_depth", server.view.max_queue_depth);
      AppendJsonKv(json, "loops", server.view.loops);
      AppendJsonKv(json, "wakeups", server.view.wakeups);
      AppendJsonKv(json, "wakeups_coalesced", server.view.wakeups_coalesced);
      AppendJsonKv(json, "handoffs", server.view.handoffs, /*comma=*/false);
      json += "},\"per_loop\":[";
      for (size_t i = 0; i < server.loops.size(); ++i) {
        if (i > 0) json += ',';
        json += '{';
        AppendJsonKv(json, "accepted_connections",
                     server.loops[i].accepted_connections);
        AppendJsonKv(json, "active_connections",
                     server.loops[i].active_connections);
        AppendJsonKv(json, "requests", server.loops[i].requests);
        AppendJsonKv(json, "shed_requests", server.loops[i].shed_requests);
        AppendJsonKv(json, "wakeups", server.loops[i].wakeups);
        AppendJsonKv(json, "wakeups_coalesced",
                     server.loops[i].wakeups_coalesced);
        AppendJsonKv(json, "handoffs", server.loops[i].handoffs);
        AppendJsonKv(json, "completions", server.loops[i].completions,
                     /*comma=*/false);
        json += '}';
      }
      json += "],\"repository\":{";
      AppendJsonKv(json, "documents", repo.documents);
      AppendJsonKv(json, "elements", repo.elements);
      AppendJsonKv(json, "distinct_paths", repo.distinct_paths);
      AppendJsonKv(json, "flat_bytes", repo.flat_bytes, /*comma=*/false);
      json += "}";
      if (context_.durable != nullptr) {
        const obs::StorageStatsView storage = context_.durable->stats();
        json += ",\"storage\":{";
        AppendJsonKv(json, "wal_appends", storage.wal_appends);
        AppendJsonKv(json, "wal_replayed", storage.wal_replayed);
        AppendJsonKv(json, "snapshot_bytes", storage.snapshot_bytes,
                     /*comma=*/false);
        json += "}";
      }
      json += "}";
      response.stats_json = std::move(json);
      break;
    }
    case MsgType::kCheckpoint: {
      if (context_.durable == nullptr) {
        return ErrorResponse(request.id, WireError::kFailedPrecondition,
                             "checkpoint requires a durable repository "
                             "(start the server with --data-dir)");
      }
      const Status status = context_.durable->Checkpoint();
      if (!status.ok()) {
        return ErrorResponse(request.id, StatusToWireError(status),
                             status.message());
      }
      break;
    }
    case MsgType::kError:
      return ErrorResponse(request.id, WireError::kBadFrame,
                           "kError is response-only");
  }
  return response;
}

}  // namespace serve
}  // namespace webre
