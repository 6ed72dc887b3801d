// End-to-end tests for the serving front end over real loopback
// sockets: every endpoint, both wire faces (binary frames and the
// JSON-lines debug mode), the admission-control shed paths with their
// retry-after contract, bad-frame handling, and the worker-failure
// surface. The durable variants run against a DurableRepository in a
// temp dir so kCheckpoint is exercised for real.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "concepts/resume_domain.h"
#include "corpus/resume_generator.h"
#include "gtest/gtest.h"
#include "repository/repository.h"
#include "restructure/converter.h"
#include "restructure/recognizer.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "storage/durable_repository.h"

namespace webre {
namespace serve {
namespace {

class ServerTest : public testing::Test {
 protected:
  ServerTest()
      : concepts_(ResumeConcepts()),
        constraints_(ResumeConstraints()),
        recognizer_(&concepts_),
        converter_(&concepts_, &recognizer_, &constraints_) {}

  // Starts a server over a fresh in-memory repository preloaded with
  // `docs` resumes, applying `tweak` to the options first.
  void StartServer(size_t docs,
                   std::function<void(ServeOptions&)> tweak = {}) {
    RepositoryOptions repo_options;
    repo_options.num_shards = 2;
    repo_ = std::make_unique<XmlRepository>(repo_options);
    for (size_t i = 0; i < docs; ++i) {
      ASSERT_TRUE(
          repo_->Add(converter_.Convert(GenerateResume(i).html)).ok());
    }
    ServeContext context;
    context.repo = repo_.get();
    context.converter = &converter_;
    ServeOptions options;
    options.worker_threads = 2;
    if (tweak) tweak(options);
    server_ = std::make_unique<Server>(context, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect(server_->port());
    EXPECT_TRUE(client.ok());
    return std::move(*client);
  }

  static Request Req(MsgType type, uint32_t id, std::string body = "") {
    Request request;
    request.type = type;
    request.id = id;
    request.body = std::move(body);
    return request;
  }

  ConceptSet concepts_;
  ConstraintSet constraints_;
  SynonymRecognizer recognizer_;
  DocumentConverter converter_;
  std::unique_ptr<XmlRepository> repo_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingQuerySchemaStatsOverLoopback) {
  StartServer(6);
  auto client = Connect();

  auto pong = client->Call(Req(MsgType::kPing, 1));
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok());
  EXPECT_EQ(pong->id, 1u);

  auto matches = client->Call(Req(MsgType::kQuery, 2, "//DATE"));
  ASSERT_TRUE(matches.ok());
  ASSERT_TRUE(matches->ok()) << matches->message;
  EXPECT_GT(matches->total_matches, 0u);
  ASSERT_FALSE(matches->matches.empty());
  EXPECT_EQ(matches->matches[0].name, "DATE");

  // Same query again: served from the generation-keyed cache, with the
  // fresh request id stamped on the cached body.
  auto again = client->Call(Req(MsgType::kQuery, 3, "//DATE"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id, 3u);
  EXPECT_EQ(again->total_matches, matches->total_matches);
  EXPECT_GE(server_->stats().view.cache_hits, 1u);

  auto schema = client->Call(Req(MsgType::kSchema, 4));
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(schema->ok());
  EXPECT_NE(schema->schema_text.find("resume"), std::string::npos);
  EXPECT_NE(schema->dtd_text.find("<!ELEMENT"), std::string::npos);

  auto stats = client->Call(Req(MsgType::kStats, 5));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok());
  EXPECT_NE(stats->stats_json.find("\"serve\""), std::string::npos);
  EXPECT_NE(stats->stats_json.find("\"documents\":6"), std::string::npos);

  // Malformed query: typed error, connection stays usable.
  auto bad = client->Call(Req(MsgType::kQuery, 6, "///"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->error, WireError::kInvalidArgument);
  auto alive = client->Call(Req(MsgType::kPing, 7));
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive->ok());
}

TEST_F(ServerTest, AcceptedSocketsDisableNagle) {
  StartServer(1);
  auto client = Connect();
  // One round trip guarantees the server has accepted the connection.
  auto pong = client->Call(Req(MsgType::kPing, 1));
  ASSERT_TRUE(pong.ok());
  ASSERT_TRUE(pong->ok());

  // The server shares this process, so its end of the connection is one
  // of our descriptors: the socket bound to the server's port that has a
  // peer (the listening socket has none).
  size_t accepted = 0;
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET ||
        ntohs(local.sin_port) != server_->port()) {
      continue;
    }
    sockaddr_in peer{};
    len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
      continue;
    }
    int nodelay = 0;
    len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_NE(nodelay, 0) << "accepted fd " << fd << " still runs Nagle";
    ++accepted;
  }
  EXPECT_EQ(accepted, 1u);
}

TEST_F(ServerTest, IngestGrowsTheRepositoryAndInvalidatesTheCache) {
  StartServer(2);
  auto client = Connect();

  auto before = client->Call(Req(MsgType::kQuery, 1, "//DATE"));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->ok());

  auto admitted =
      client->Call(Req(MsgType::kIngest, 2, GenerateResume(50).html));
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->ok()) << admitted->message;

  auto after = client->Call(Req(MsgType::kQuery, 3, "//DATE"));
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->ok());
  EXPECT_GT(after->total_matches, before->total_matches);
}

TEST_F(ServerTest, CheckpointWithoutDurableDirFailsTyped) {
  StartServer(1);
  auto client = Connect();
  auto response = client->Call(Req(MsgType::kCheckpoint, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->error, WireError::kFailedPrecondition);
}

TEST_F(ServerTest, DurableIngestAndCheckpoint) {
  const std::string dir = testing::TempDir() + "/serve_durable_test";
  (void)::system(("rm -rf '" + dir + "'").c_str());
  auto durable = storage::DurableRepository::Open(dir);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  ServeContext context;
  context.repo = &(*durable)->repo();
  context.durable = durable->get();
  context.converter = &converter_;
  Server server(context, ServeOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto admitted =
      (*client)->Call(Req(MsgType::kIngest, 1, GenerateResume(0).html));
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->ok()) << admitted->message;

  auto checkpointed = (*client)->Call(Req(MsgType::kCheckpoint, 2));
  ASSERT_TRUE(checkpointed.ok());
  EXPECT_TRUE(checkpointed->ok()) << checkpointed->message;
  server.Stop();

  // The admitted document survives a fresh open.
  auto reopened = storage::DurableRepository::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->repo().Stats().documents, 1u);
  (void)::system(("rm -rf '" + dir + "'").c_str());
}

TEST_F(ServerTest, PerClientQuotaShedsWithRetryAfter) {
  StartServer(1, [](ServeOptions& options) {
    // One token, glacial refill: the second request must shed.
    options.per_client_qps = 0.001;
    options.per_client_burst = 1.0;
  });
  auto client = Connect();

  auto first = client->Call(Req(MsgType::kPing, 1));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->ok());

  auto second = client->Call(Req(MsgType::kPing, 2));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->error, WireError::kOverloaded);
  EXPECT_GT(second->retry_after_ms, 0u);

  // The connection survives the shed — the THIRD request is also shed
  // (no tokens yet) but still answered, proving framing state is fine.
  auto third = client->Call(Req(MsgType::kPing, 3));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->error, WireError::kOverloaded);
  EXPECT_GE(server_->stats().view.shed_requests, 2u);
}

TEST_F(ServerTest, ConnectionCapShedsNewClients) {
  StartServer(1, [](ServeOptions& options) { options.max_clients = 1; });
  auto first = Connect();
  auto pong = first->Call(Req(MsgType::kPing, 1));
  ASSERT_TRUE(pong.ok());

  // The second client is answered with one kOverloaded frame, then
  // closed.
  auto second = Client::Connect(server_->port());
  ASSERT_TRUE(second.ok());
  auto shed = (*second)->Receive();
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->error, WireError::kOverloaded);
  EXPECT_GT(shed->retry_after_ms, 0u);
  EXPECT_FALSE((*second)->Receive().ok());  // EOF

  // The first client is unaffected.
  auto alive = first->Call(Req(MsgType::kPing, 2));
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive->ok());
}

TEST_F(ServerTest, OversizedAnnouncementClosesWithBadFrame) {
  StartServer(1, [](ServeOptions& options) {
    options.limits.max_input_bytes = 4096;
  });
  auto client = Connect();

  // 1 MiB ingest against a 4 KiB frame cap: rejected from the header.
  auto response =
      client->Call(Req(MsgType::kIngest, 1, std::string(1u << 20, 'x')));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->error, WireError::kBadFrame);
  EXPECT_FALSE(client->Receive().ok());  // connection closed
}

TEST_F(ServerTest, GarbageBytesCloseWithBadFrame) {
  StartServer(1);
  auto client = Connect();
  // Not '{', so binary mode; version byte is wrong.
  ASSERT_TRUE(client->SendRaw(std::string(64, '\xEE')).ok());
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->error, WireError::kBadFrame);
  EXPECT_FALSE(client->Receive().ok());
}

TEST_F(ServerTest, JsonDebugModeSpeaksLines) {
  StartServer(3);
  auto client = Connect();
  ASSERT_TRUE(
      client->SendRaw("{\"op\":\"query\",\"q\":\"//DATE\",\"id\":9}\n").ok());
  auto line = client->ReceiveLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"id\":9"), std::string::npos);
  EXPECT_NE(line->find("\"total\":"), std::string::npos);

  ASSERT_TRUE(client->SendRaw("{\"op\":\"ping\",\"id\":11}\n").ok());
  auto pong = client->ReceiveLine();
  ASSERT_TRUE(pong.ok());
  EXPECT_NE(pong->find("\"ok\":true"), std::string::npos);

  // An unparseable line is a framing error: one bad_frame line, then
  // the connection closes (same contract as the binary face).
  ASSERT_TRUE(client->SendRaw("{\"op\":\"nonsense\"}\n").ok());
  auto error_line = client->ReceiveLine();
  ASSERT_TRUE(error_line.ok());
  EXPECT_NE(error_line->find("\"error\":\"bad_frame\""), std::string::npos);
  EXPECT_FALSE(client->ReceiveLine().ok());
}

TEST_F(ServerTest, WorkerFailureSurfacesInTheResponse) {
  StartServer(1, [](ServeOptions& options) {
    options.before_execute = [](const Request& request) {
      if (request.type == MsgType::kPing) {
        throw std::runtime_error("injected worker failure");
      }
    };
  });
  auto client = Connect();
  auto response = client->Call(Req(MsgType::kPing, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->error, WireError::kInternal);
  EXPECT_NE(response->message.find("worker task failed"), std::string::npos);
  EXPECT_NE(response->message.find("injected worker failure"),
            std::string::npos);

  // The connection — and the worker pool — survive the failure.
  auto query = client->Call(Req(MsgType::kQuery, 2, "//DATE"));
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->ok());
}

TEST_F(ServerTest, ExecuteBypassesTheNetwork) {
  StartServer(4);
  Response response = server_->Execute(Req(MsgType::kQuery, 1, "//DATE"));
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response.total_matches, 0u);
  Response invalid = server_->Execute(Req(MsgType::kQuery, 2, "///"));
  EXPECT_EQ(invalid.error, WireError::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Multi-loop matrix: the admission, ingest and counter contracts must
// hold identically at every loop count. Parameterized over loops in
// {1, 2, 4}; loops=1 doubles as the single-reactor compatibility anchor
// (same code path the whole suite above exercises at the default).

class MultiLoopServerTest : public ServerTest,
                            public testing::WithParamInterface<size_t> {
 protected:
  size_t Loops() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(Loops, MultiLoopServerTest,
                         testing::Values<size_t>(1, 2, 4),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return "loops" + std::to_string(info.param);
                         });

TEST_P(MultiLoopServerTest, QuotaShedsOnEveryLoop) {
  StartServer(1, [&](ServeOptions& options) {
    options.loops = Loops();
    options.per_client_qps = 0.001;
    options.per_client_burst = 1.0;
  });
  ASSERT_EQ(server_->loops(), Loops());

  // 2*loops clients: round-robin dealing puts two on every loop, so the
  // per-connection token bucket is exercised on each reactor.
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < 2 * Loops(); ++i) clients.push_back(Connect());
  for (auto& client : clients) {
    auto first = client->Call(Req(MsgType::kPing, 1));
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first->ok());
    auto second = client->Call(Req(MsgType::kPing, 2));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->error, WireError::kOverloaded);
    EXPECT_GT(second->retry_after_ms, 0u);
  }
  EXPECT_GE(server_->stats().view.shed_requests, 2 * Loops());
}

TEST_P(MultiLoopServerTest, ConnectionCapIsGlobalAcrossLoops) {
  StartServer(1, [&](ServeOptions& options) {
    options.loops = Loops();
    options.max_clients = Loops();  // exactly one connection per loop
  });

  std::vector<std::unique_ptr<Client>> admitted;
  for (size_t i = 0; i < Loops(); ++i) {
    auto client = Connect();
    // The round trip serializes adoption, so the accept order — and the
    // round-robin loop assignment — is deterministic.
    auto pong = client->Call(Req(MsgType::kPing, 1));
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->ok());
    admitted.push_back(std::move(client));
  }

  // The cap is server-wide, not per-loop: the (n+1)-th client is shed
  // even though the loop it would have been dealt to owns only one
  // connection.
  auto extra = Client::Connect(server_->port());
  ASSERT_TRUE(extra.ok());
  auto shed = (*extra)->Receive();
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->error, WireError::kOverloaded);
  EXPECT_GT(shed->retry_after_ms, 0u);
  EXPECT_FALSE((*extra)->Receive().ok());  // closed after the shed frame

  for (auto& client : admitted) {
    auto alive = client->Call(Req(MsgType::kPing, 2));
    ASSERT_TRUE(alive.ok());
    EXPECT_TRUE(alive->ok());
  }
}

TEST_P(MultiLoopServerTest, IngestAndQueryMatchSingleLoopByteForByte) {
  constexpr size_t kDocs = 4;
  StartServer(kDocs,
              [&](ServeOptions& options) { options.loops = Loops(); });

  // A reference single-loop server over an independently built copy of
  // the same corpus.
  RepositoryOptions repo_options;
  repo_options.num_shards = 2;
  XmlRepository ref_repo(repo_options);
  for (size_t i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(
        ref_repo.Add(converter_.Convert(GenerateResume(i).html)).ok());
  }
  ServeContext ref_context;
  ref_context.repo = &ref_repo;
  ref_context.converter = &converter_;
  ServeOptions ref_options;
  ref_options.worker_threads = 2;
  ref_options.loops = 1;
  Server reference(ref_context, ref_options);
  ASSERT_TRUE(reference.Start().ok());

  auto client = Connect();
  auto ref_client = Client::Connect(reference.port());
  ASSERT_TRUE(ref_client.ok());

  // Response BODIES are id-independent by design (the result cache
  // depends on that), so re-encoding both decoded responses with the id
  // zeroed compares the exact bytes the wire defines.
  auto expect_same = [&](Request request) {
    auto a = client->Call(request);
    auto b = (*ref_client)->Call(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    a->id = 0;
    b->id = 0;
    std::string body_a;
    std::string body_b;
    EncodeResponseBody(*a, body_a);
    EncodeResponseBody(*b, body_b);
    EXPECT_EQ(body_a, body_b) << "diverged on request " << request.id;
  };

  const char* const kShapes[] = {"//DATE", "/resume/SKILLS/LANGUAGE",
                                 "//LOCATION/*"};
  uint32_t id = 1;
  for (const char* shape : kShapes) {
    expect_same(Req(MsgType::kQuery, id++, shape));
  }
  expect_same(Req(MsgType::kIngest, id++, GenerateResume(77).html));
  for (const char* shape : kShapes) {
    expect_same(Req(MsgType::kQuery, id++, shape));
  }
  expect_same(Req(MsgType::kSchema, id++));
  reference.Stop();
}

TEST_P(MultiLoopServerTest, WakeupCoalescingCountersAddUp) {
  StartServer(2, [&](ServeOptions& options) { options.loops = Loops(); });
  ASSERT_EQ(server_->loops(), Loops());

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < 2 * Loops(); ++i) clients.push_back(Connect());
  constexpr uint32_t kCalls = 8;
  for (auto& client : clients) {
    for (uint32_t id = 1; id <= kCalls; ++id) {
      auto response = client->Call(
          id % 2 != 0 ? Req(MsgType::kQuery, id, "//DATE")
                      : Req(MsgType::kPing, id));
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->ok());
    }
  }

  // Every response came back, so the rings are quiescent. Each posted
  // event (a worker completion or an acceptor handoff) either rang the
  // eventfd or was coalesced — never both, never neither.
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.view.loops, Loops());
  ASSERT_EQ(stats.loops.size(), Loops());
  uint64_t accepted = 0;
  uint64_t requests = 0;
  uint64_t rings = 0;
  uint64_t posted = 0;
  for (const LoopStats& loop : stats.loops) {
    accepted += loop.accepted_connections;
    requests += loop.requests;
    rings += loop.wakeups + loop.wakeups_coalesced;
    posted += loop.completions + loop.handoffs;
  }
  EXPECT_EQ(accepted, clients.size());
  EXPECT_EQ(requests, clients.size() * kCalls);
  EXPECT_EQ(rings, posted);
  if (Loops() > 1) {
    // Round-robin dealing spreads connections over every reactor.
    for (const LoopStats& loop : stats.loops) {
      EXPECT_GT(loop.accepted_connections, 0u);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace webre
