// Loopback TCP tests for the serving front-end: byte-identity of served
// results against the direct engine, pipelined out-of-order completion,
// connection-level admission control, protocol-violation handling, the
// stats round-trip, and connection churn. Servers bind 127.0.0.1 port 0
// (kernel-assigned), so these run anywhere without port coordination. One
// case squeezes this process's own descriptor limit (never more than a few
// dozen connections).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "search/algorithm_a.h"
#include "bidir/bi_fm_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using serve::Client;
using serve::Server;
using serve::ServerOptions;
using serve::Session;
using serve::SessionOptions;
using serve::WireStatus;

struct NetFixture {
  std::vector<DnaCode> text;
  FmIndex index;
  std::vector<std::string> patterns;  // ASCII, as a client would send them
  std::vector<int32_t> budgets;
};

NetFixture MakeNetFixture(size_t text_length, size_t num_queries,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<DnaCode> text = testing::RandomDna(text_length, &rng);
  FmIndex index = FmIndex::Build(text).value();
  std::vector<std::string> patterns;
  std::vector<int32_t> budgets;
  for (size_t i = 0; i < num_queries; ++i) {
    const size_t m = 8 + rng.NextBounded(12);
    const size_t pos = rng.NextBounded(text_length - m);
    std::string pattern;
    for (size_t j = 0; j < m; ++j) {
      pattern.push_back(CodeToChar(text[pos + j]));
    }
    patterns.push_back(std::move(pattern));
    budgets.push_back(static_cast<int32_t>(rng.NextBounded(3)));
  }
  return NetFixture{std::move(text), std::move(index), std::move(patterns),
                    std::move(budgets)};
}

TEST(ServeNetTest, ServedResultsAreByteIdenticalToDirectEngine) {
  NetFixture fixture = MakeNetFixture(20000, 25, 61);
  Session session(&fixture.index, {.num_threads = 2});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->hello().engine, "algorithm_a");
  EXPECT_FALSE((*client)->hello().sharded);

  const AlgorithmA serial(&fixture.index);
  AlgorithmAScratch scratch;
  for (size_t i = 0; i < fixture.patterns.size(); ++i) {
    const auto response =
        (*client)->Query(fixture.patterns[i], fixture.budgets[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, WireStatus::kOk) << response->message;
    const auto codes = EncodeDna(fixture.patterns[i]);
    ASSERT_TRUE(codes.ok());
    std::vector<Occurrence> expected =
        serial.Search(codes.value(), fixture.budgets[i], nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(response->hits, expected) << "query " << i;
  }
  EXPECT_EQ(server.num_connections(), 1u);
}

TEST(ServeNetTest, PipelinedResponsesMatchedByRequestId) {
  NetFixture fixture = MakeNetFixture(20000, 30, 67);
  Session session(&fixture.index, {.num_threads = 3});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Fire everything, then collect: responses arrive in completion order;
  // every request id must come back exactly once with the right payload.
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < fixture.patterns.size(); ++i) {
    const auto id =
        (*client)->SendQuery(fixture.patterns[i], fixture.budgets[i]);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  const AlgorithmA serial(&fixture.index);
  AlgorithmAScratch scratch;
  std::vector<bool> answered(fixture.patterns.size(), false);
  for (size_t n = 0; n < ids.size(); ++n) {
    auto response = (*client)->ReceiveResponse();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, WireStatus::kOk);
    // Recover the query from the id (ids are assigned 1,2,3,... by the
    // client in submission order).
    const size_t slot = static_cast<size_t>(response->request_id - ids[0]);
    ASSERT_LT(slot, fixture.patterns.size());
    EXPECT_FALSE(answered[slot]) << "duplicate response";
    answered[slot] = true;
    const auto codes = EncodeDna(fixture.patterns[slot]);
    std::vector<Occurrence> expected =
        serial.Search(codes.value(), fixture.budgets[slot], nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(response->hits, expected);
  }
  for (const bool got : answered) EXPECT_TRUE(got);
}

TEST(ServeNetTest, ConnectionInflightCapAnswersOverloaded) {
  NetFixture fixture = MakeNetFixture(8000, 4, 71);
  Session session(&fixture.index, {.num_threads = 1});
  session.Pause();  // queries stay queued: the cap is hit deterministically
  ServerOptions options;
  options.max_inflight_per_connection = 2;
  Server server(&session, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->hello().max_inflight, 2u);

  ASSERT_TRUE((*client)->SendQuery(fixture.patterns[0], 0).ok());
  ASSERT_TRUE((*client)->SendQuery(fixture.patterns[1], 0).ok());
  ASSERT_TRUE((*client)->SendQuery(fixture.patterns[2], 0).ok());
  // The third answer arrives first — rejected immediately while the two
  // admitted ones sit in the paused session.
  auto response = (*client)->ReceiveResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOverloaded);
  session.Resume();
  for (int i = 0; i < 2; ++i) {
    response = (*client)->ReceiveResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, WireStatus::kOk) << response->message;
  }
}

TEST(ServeNetTest, InvalidPatternAndBadBudgetAnswerInvalidArgument) {
  NetFixture fixture = MakeNetFixture(8000, 1, 73);
  Session session(&fixture.index, {.num_threads = 1});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Undecodable pattern under the default engine.
  auto response = (*client)->Query("not dna!", 1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  // Negative budget.
  response = (*client)->Query("acgt", -1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  // The connection survives rejected queries.
  response = (*client)->Query(fixture.patterns[0], 1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

// Opens a raw TCP connection (no Client handshake) so tests can push
// arbitrary bytes at the server. Returns -1 on failure.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Blocks until the peer closes (recv == 0) or errors; true if closed.
bool PeerClosed(int fd) {
  char buffer[256];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

TEST(ServeNetTest, BadMagicAndMalformedFramesCloseConnection) {
  NetFixture fixture = MakeNetFixture(8000, 1, 79);
  Session session(&fixture.index, {.num_threads = 1});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());

  {
    // HELLO with a corrupt magic: server must drop the connection without
    // answering.
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string hello;
    serve::AppendHelloFrame(&hello);
    hello[5] ^= 0xff;  // flip a magic byte inside the payload
    ASSERT_EQ(::send(fd, hello.data(), hello.size(), 0),
              static_cast<ssize_t>(hello.size()));
    EXPECT_TRUE(PeerClosed(fd));
    ::close(fd);
  }
  {
    // QUERY before HELLO is a protocol violation: same tear-down path.
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string query;
    serve::AppendQueryFrame({1, 1, "acgt"}, &query);
    ASSERT_EQ(::send(fd, query.data(), query.size(), 0),
              static_cast<ssize_t>(query.size()));
    EXPECT_TRUE(PeerClosed(fd));
    ::close(fd);
  }
  {
    // Oversized declared frame length: server must refuse to buffer it.
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    const uint32_t huge = 0x7fffffff;
    char header[5];
    std::memcpy(header, &huge, 4);
    header[4] = 1;  // kHello
    ASSERT_EQ(::send(fd, header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    EXPECT_TRUE(PeerClosed(fd));
    ::close(fd);
  }

  // A well-behaved client on the same server still works after all that.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto response = (*client)->Query(fixture.patterns[0], 0);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

TEST(ServeNetTest, StatsRoundTripSeesServerSideCounters) {
  NetFixture fixture = MakeNetFixture(8000, 3, 83);
  Session session(&fixture.index, {.num_threads = 1});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (const std::string& pattern : fixture.patterns) {
    ASSERT_TRUE((*client)->Query(pattern, 1).ok());
  }
  const auto stats = (*client)->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->submitted, fixture.patterns.size());
  EXPECT_EQ(stats->completed, fixture.patterns.size());
  EXPECT_EQ(stats->inflight, 0u);
}

TEST(ServeNetTest, PerQueryStatsTrailerOverTcp) {
  // Opt-in per-query stats: a QUERY with the want_stats flag gets the
  // RESULT trailer (engine counters, timings, cache flag); one without
  // stays trailer-free. Hits are byte-identical either way.
  NetFixture fixture = MakeNetFixture(12000, 3, 91);
  SessionOptions session_options;
  session_options.num_threads = 1;
  session_options.batch.result_cache.enabled = true;
  Session session(&fixture.index, session_options);
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Cold, with stats: real execution — counters populated, not
  // cache-served.
  auto cold = (*client)->Query(fixture.patterns[0], 1, /*want_stats=*/true);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->status, WireStatus::kOk) << cold->message;
  ASSERT_TRUE(cold->has_stats);
  EXPECT_FALSE(cold->cache_served);
  EXPECT_GT(cold->stats.extend_calls, 0u);
  EXPECT_GT(cold->search_ns, 0u);

  // Same query again: served from the result cache with the original
  // execution's stats and identical hits.
  const auto warm =
      (*client)->Query(fixture.patterns[0], 1, /*want_stats=*/true);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->has_stats);
  EXPECT_TRUE(warm->cache_served);
  EXPECT_EQ(warm->stats, cold->stats);
  EXPECT_EQ(warm->hits, cold->hits);

  // Flagless query: no trailer, same hits — existing clients see the
  // exact pre-trailer byte stream.
  const auto plain = (*client)->Query(fixture.patterns[0], 1);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_stats);
  EXPECT_EQ(plain->hits, cold->hits);
}

TEST(ServeNetTest, RequestTimeoutAnswersTimedOutExactlyOnce) {
  NetFixture fixture = MakeNetFixture(8000, 2, 89);
  Session session(&fixture.index, {.num_threads = 1});
  session.Pause();  // the query can never finish before the deadline
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(30);
  Server server(&session, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->SendQuery(fixture.patterns[0], 0).ok());
  auto response = (*client)->ReceiveResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kTimedOut);
  // The late real completion must be swallowed: the next response on the
  // wire belongs to the next query, not a duplicate of the timed-out one.
  session.Resume();
  const auto id2 = (*client)->SendQuery(fixture.patterns[1], 0);
  ASSERT_TRUE(id2.ok());
  response = (*client)->ReceiveResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->request_id, id2.value());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

TEST(ServeNetTest, ServerStopWhileClientsConnectedIsClean) {
  NetFixture fixture = MakeNetFixture(8000, 2, 97);
  Session session(&fixture.index, {.num_threads = 2});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 3; ++i) {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Query(fixture.patterns[0], 1).ok());
    clients.push_back(std::move(client.value()));
  }
  server.Stop();  // severs all three mid-session; must not hang or crash
  for (auto& client : clients) {
    EXPECT_FALSE(client->Query(fixture.patterns[1], 1).ok());
  }
  // The session itself is untouched by the front-end stopping.
  EXPECT_TRUE(session.Submit(BatchQuery{{0, 1, 2, 3}, 1}).ok());
}

// This process's VmSize in KiB (0 when /proc is unreadable).
size_t VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(ServeNetTest, ConnectionChurnJoinsClosedReaders) {
  // Each connection runs on its own reader thread. An exited thread that
  // nobody joins keeps its stack (8 MiB by default) mapped, so 64
  // connect/close cycles would grow the address space by over 512 MiB.
  // The thread count cannot show it — an exited thread leaves /proc's
  // Threads: line — so watch VmSize. One malloc arena keeps per-thread
  // arenas out of the figure.
  mallopt(M_ARENA_MAX, 1);
  NetFixture fixture = MakeNetFixture(8000, 1, 229);
  Session session(&fixture.index, {.num_threads = 1});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  const size_t before_kib = VmSizeKiB();
  ASSERT_GT(before_kib, 0u);
  for (int i = 0; i < 64; ++i) {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->Query(fixture.patterns[0], 1).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.num_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.num_connections(), 0u);
  const size_t after_kib = VmSizeKiB();
  EXPECT_LT(after_kib, before_kib + 64 * 1024)
      << "VmSize grew by " << (after_kib - before_kib) / 1024
      << " MiB over 64 connections";
}

TEST(ServeNetTest, PerQueryEngineOverrideOverTcp) {
  NetFixture fixture = MakeNetFixture(15000, 10, 211);
  const auto bidir = BiFmIndex::Build(fixture.text).value();
  SessionOptions options;
  options.num_threads = 2;
  options.batch.bidir_indexes = {&bidir};  // engine stays kAlgorithmA
  Session session(&fixture.index, options);
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const AlgorithmA serial(&fixture.index);
  AlgorithmAScratch scratch;
  for (size_t i = 0; i < fixture.patterns.size(); ++i) {
    // Every Hamming engine must serve the same bytes over the wire.
    const auto codes = EncodeDna(fixture.patterns[i]).value();
    std::vector<Occurrence> expected =
        serial.Search(codes, fixture.budgets[i], nullptr, &scratch);
    NormalizeOccurrences(&expected);
    for (const auto engine :
         {std::optional<BatchEngine>{}, std::optional<BatchEngine>{
                                            BatchEngine::kBidirectional},
          std::optional<BatchEngine>{BatchEngine::kSTree},
          std::optional<BatchEngine>{BatchEngine::kAuto}}) {
      const auto response = (*client)->Query(
          fixture.patterns[i], fixture.budgets[i], /*want_stats=*/false,
          engine);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, WireStatus::kOk) << response->message;
      EXPECT_EQ(response->hits, expected) << "query " << i;
    }
  }
}

// Reads the next whole frame from `fd` into `*frame`, waiting up to
// `timeout`. False on a timeout, a closed or failed connection, or a framing
// error.
bool NextFrameWithin(int fd, serve::FrameReader* reader,
                     std::chrono::milliseconds timeout, serve::Frame* frame) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char buffer[256];
  for (;;) {
    auto next = reader->Next();
    if (!next.ok()) return false;
    if (next->has_value()) {
      *frame = std::move(**next);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&readable, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    reader->Feed(buffer, static_cast<size_t>(n));
  }
}

bool SendAll(int fd, const std::string& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

// Sends HELLO on a fresh raw connection and waits up to `timeout` for the
// HELLO_ACK frame (a Client would block forever on a server that never
// accepts). False when the connection fails or no ACK arrives in time.
bool HandshakeWithin(uint16_t port, std::chrono::milliseconds timeout) {
  const int fd = RawConnect(port);
  if (fd < 0) return false;
  std::string hello;
  serve::AppendHelloFrame(&hello);
  serve::FrameReader reader;
  serve::Frame frame;
  const bool acked = SendAll(fd, hello) &&
                     NextFrameWithin(fd, &reader, timeout, &frame) &&
                     frame.type == serve::FrameType::kHelloAck;
  ::close(fd);
  return acked;
}

TEST(ServeNetTest, AcceptorSurvivesDescriptorExhaustion) {
  // accept() failing with EMFILE must not end accepting for good. The test
  // opens 20 client sockets, then lowers its own RLIMIT_NOFILE to the
  // lowest free descriptor: every socket() took the lowest free one, so
  // the table is full and the server cannot accept any of the 20
  // connections. Closing the clients frees it again.
  NetFixture fixture = MakeNetFixture(8000, 1, 239);
  Session session(&fixture.index, {.num_threads = 1});
  ServerOptions options;
  options.listen_backlog = 32;  // every client's handshake completes
  Server server(&session, options);
  ASSERT_TRUE(server.Start().ok());
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);

  std::vector<int> clients;
  for (int i = 0; i < 20; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
  }
  const int next_free = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(next_free, 0);
  ::close(next_free);
  rlimit full = saved;
  full.rlim_cur = static_cast<rlim_t>(next_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &full), 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (const int fd : clients) {
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  // Give the acceptor time to run into the full table.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const int fd : clients) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_TRUE(HandshakeWithin(server.port(), std::chrono::seconds(5)))
      << "the listener stopped accepting after EMFILE";
}

TEST(ServeNetTest, UnavailableEngineOverrideAnswersInvalidArgument) {
  NetFixture fixture = MakeNetFixture(8000, 1, 223);
  Session session(&fixture.index, {.num_threads = 1});  // no bidir indexes
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Query(fixture.patterns[0], 1,
                                   /*want_stats=*/false,
                                   BatchEngine::kBidirectional);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kInvalidArgument);
  EXPECT_NE(response->message.find("bidirectional"), std::string::npos)
      << response->message;
  // The connection survives; kAuto degrades instead of failing.
  response = (*client)->Query(fixture.patterns[0], 1, /*want_stats=*/false,
                              BatchEngine::kAuto);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
}

TEST(ServeNetTest, UnparseableQueryAnswersUnderItsRequestId) {
  // A QUERY whose payload fails to parse still gets exactly one RESULT,
  // carrying the request's own id (docs/SERVING.md §4.3, §5), so a client
  // waiting on that id does not hang. Engine byte 4 is the retired
  // dictionary engine; 7 is an id this build does not know.
  NetFixture fixture = MakeNetFixture(8000, 1, 241);
  Session session(&fixture.index, {.num_threads = 1});
  Server server(&session);
  ASSERT_TRUE(server.Start().ok());
  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  constexpr std::chrono::seconds kWait(5);
  serve::FrameReader reader;
  serve::Frame frame;
  std::string hello;
  serve::AppendHelloFrame(&hello);
  ASSERT_TRUE(SendAll(fd, hello));
  ASSERT_TRUE(NextFrameWithin(fd, &reader, kWait, &frame));
  ASSERT_EQ(frame.type, serve::FrameType::kHelloAck);

  for (const uint8_t engine : {uint8_t{4}, uint8_t{7}}) {
    // The override trailer is spliced on by hand: no BatchEngine maps to
    // either byte, so a QueryRequest cannot carry them.
    const uint64_t id = 40 + engine;
    std::string query;
    serve::AppendQueryFrame(
        {.request_id = id, .k = 1, .pattern = fixture.patterns[0]}, &query);
    query.push_back(static_cast<char>(serve::kQueryFlagEngineOverride));
    query.push_back(static_cast<char>(engine));
    const uint32_t payload_length = static_cast<uint32_t>(query.size() - 5);
    std::memcpy(query.data(), &payload_length, sizeof(payload_length));
    ASSERT_TRUE(SendAll(fd, query));
    ASSERT_TRUE(NextFrameWithin(fd, &reader, kWait, &frame))
        << "engine " << int{engine};
    ASSERT_EQ(frame.type, serve::FrameType::kResult);
    const auto response = serve::ParseResultPayload(frame.payload).value();
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, WireStatus::kInvalidArgument);
    EXPECT_NE(response.message.find(engine == 4 ? "dictionary" : "id 7"),
              std::string::npos)
        << response.message;
  }

  // The connection survives: the next query is answered.
  std::string query;
  serve::AppendQueryFrame(
      {.request_id = 50, .k = 0, .pattern = fixture.patterns[0]}, &query);
  ASSERT_TRUE(SendAll(fd, query));
  ASSERT_TRUE(NextFrameWithin(fd, &reader, kWait, &frame));
  ASSERT_EQ(frame.type, serve::FrameType::kResult);
  const auto response = serve::ParseResultPayload(frame.payload).value();
  EXPECT_EQ(response.request_id, 50u);
  EXPECT_EQ(response.status, WireStatus::kOk) << response.message;
  EXPECT_FALSE(response.hits.empty());
  ::close(fd);
}

}  // namespace
}  // namespace bwtk
