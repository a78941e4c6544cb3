// Session lifecycle, admission control, and result-collection contract
// (serve/session.h), plus wire encode/decode round-trips (serve/wire.h).
// The TCP loopback tests live in serve_net_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "search/algorithm_a.h"
#include "search/kerror_search.h"
#include "bidir/bi_fm_index.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "shard/sharded_index.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using serve::Callback;
using serve::QueryResult;
using serve::Session;
using serve::SessionOptions;
using serve::Ticket;

struct Fixture {
  std::vector<DnaCode> text;
  FmIndex index;
  std::vector<BatchQuery> queries;
};

Fixture MakeFixture(size_t text_length, size_t num_queries, uint64_t seed) {
  Rng rng(seed);
  std::vector<DnaCode> text = testing::RandomDna(text_length, &rng);
  FmIndex index = FmIndex::Build(text).value();
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    const size_t m = 8 + rng.NextBounded(12);
    const size_t pos = rng.NextBounded(text_length - m);
    BatchQuery query;
    query.pattern.assign(text.begin() + pos, text.begin() + pos + m);
    query.k = static_cast<int32_t>(rng.NextBounded(3));
    queries.push_back(std::move(query));
  }
  return Fixture{std::move(text), std::move(index), std::move(queries)};
}

TEST(ServeSessionTest, SubmitWaitMatchesSerialEngine) {
  Fixture fixture = MakeFixture(20000, 40, 11);
  const AlgorithmA serial(&fixture.index);
  Session session(&fixture.index, {.num_threads = 3});
  std::vector<Ticket> tickets;
  for (const BatchQuery& query : fixture.queries) {
    auto ticket = session.Submit(query);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  AlgorithmAScratch scratch;
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto result = session.Wait(tickets[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->status.ok());
    EXPECT_EQ(result->ticket, tickets[i]);
    std::vector<Occurrence> expected =
        serial.Search(fixture.queries[i].pattern, fixture.queries[i].k,
                      nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result->hits, expected) << "query " << i;
    EXPECT_GT(result->stats.extend_calls, 0u);
  }
  const serve::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.submitted, fixture.queries.size());
  EXPECT_EQ(stats.completed, fixture.queries.size());
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ServeSessionTest, PollIsConsumeOnceAndNullWhilePending) {
  Fixture fixture = MakeFixture(5000, 1, 13);
  Session session(&fixture.index, {.num_threads = 1});
  session.Pause();
  const Ticket ticket = session.Submit(fixture.queries[0]).value();
  // Paused: the query cannot complete, Poll must say "not yet".
  EXPECT_FALSE(session.Poll(ticket).has_value());
  session.Resume();
  auto result = session.Wait(ticket);
  ASSERT_TRUE(result.ok());
  // Consumed: a second collect must not block or return data.
  EXPECT_FALSE(session.Poll(ticket).has_value());
  const auto again = session.Wait(ticket);
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  // Unknown tickets are refused, not blocked on.
  EXPECT_EQ(session.Wait(99999).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSessionTest, OverloadRejectsBeyondQueueCapacity) {
  Fixture fixture = MakeFixture(5000, 1, 17);
  SessionOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.max_inflight = 100;
  Session session(&fixture.index, options);
  session.Pause();  // nothing drains: admission is fully deterministic
  std::vector<Ticket> admitted;
  for (size_t i = 0; i < 4; ++i) {
    auto ticket = session.Submit(fixture.queries[0]);
    ASSERT_TRUE(ticket.ok()) << i;
    admitted.push_back(ticket.value());
  }
  const auto rejected = session.Submit(fixture.queries[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(session.Stats().rejected_overloaded, 1u);
  // Rejection is not sticky: capacity freed -> admission resumes.
  session.Resume();
  for (const Ticket ticket : admitted) {
    EXPECT_TRUE(session.Wait(ticket).ok());
  }
  EXPECT_TRUE(session.Submit(fixture.queries[0]).ok());
}

TEST(ServeSessionTest, OverloadRejectsBeyondInflightBudget) {
  Fixture fixture = MakeFixture(5000, 1, 19);
  SessionOptions options;
  options.num_threads = 1;
  options.queue_capacity = 100;
  options.max_inflight = 3;
  Session session(&fixture.index, options);
  std::vector<Ticket> tickets;
  for (size_t i = 0; i < 3; ++i) {
    tickets.push_back(session.Submit(fixture.queries[0]).value());
  }
  // The budget counts *uncollected* results: even once all three have
  // executed, a fourth submit is refused until something is collected.
  const auto rejected = session.Submit(fixture.queries[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  ASSERT_TRUE(session.Wait(tickets[0]).ok());  // frees one slot
  EXPECT_TRUE(session.Submit(fixture.queries[0]).ok());
}

TEST(ServeSessionTest, SubmitBatchIsAllOrNothing) {
  Fixture fixture = MakeFixture(5000, 1, 23);
  SessionOptions options;
  options.num_threads = 1;
  options.queue_capacity = 3;
  Session session(&fixture.index, options);
  session.Pause();
  std::vector<BatchQuery> burst(4, fixture.queries[0]);
  const auto rejected = session.SubmitBatch(burst);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  // Nothing was admitted by the failed batch.
  EXPECT_EQ(session.Stats().submitted, 0u);
  burst.pop_back();
  const auto admitted = session.SubmitBatch(burst);
  ASSERT_TRUE(admitted.ok());
  ASSERT_EQ(admitted->size(), 3u);
  session.Resume();
  for (const Ticket ticket : *admitted) {
    EXPECT_TRUE(session.Wait(ticket).ok());
  }
}

TEST(ServeSessionTest, SubmitAfterDrainIsUnavailable) {
  Fixture fixture = MakeFixture(5000, 4, 29);
  Session session(&fixture.index, {.num_threads = 2});
  std::vector<Ticket> tickets;
  for (const BatchQuery& query : fixture.queries) {
    tickets.push_back(session.Submit(query).value());
  }
  session.Drain();
  const auto rejected = session.Submit(fixture.queries[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(session.Stats().rejected_unavailable, 1u);
  // Drain executed everything; results stay collectable afterwards.
  for (const Ticket ticket : tickets) {
    auto result = session.Poll(ticket);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->status.ok());
  }
}

TEST(ServeSessionTest, CallbacksFireExactlyOnceIncludingShutdownOrphans) {
  Fixture fixture = MakeFixture(5000, 1, 31);
  std::mutex mu;
  std::set<Ticket> seen;
  std::atomic<int> ok_count{0};
  std::atomic<int> unavailable_count{0};
  {
    SessionOptions options;
    options.num_threads = 1;
    options.queue_capacity = 64;
    Session session(&fixture.index, options);
    Callback callback = [&](QueryResult result) {
      {
        std::lock_guard<std::mutex> lock(mu);
        // Exactly-once: a repeated ticket would fail this insert.
        ASSERT_TRUE(seen.insert(result.ticket).second);
      }
      if (result.status.ok()) {
        ++ok_count;
      } else {
        EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
        ++unavailable_count;
      }
    };
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(session.Submit(fixture.queries[0], callback).ok());
    }
    session.Pause();  // whatever is still queued now stays queued
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(session.Submit(fixture.queries[0], callback).ok());
    }
    session.Shutdown();
  }
  // Every one of the 16 callbacks fired exactly once: completed ones with
  // OK, shutdown-orphaned ones with kUnavailable.
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(ok_count.load() + unavailable_count.load(), 16);
}

TEST(ServeSessionTest, ShutdownExecutesPausedBacklogThenResultsCollectable) {
  // Shutdown is graceful: Drain implies Resume, so work queued behind a
  // Pause still executes, and its result stays collectable after the
  // workers are gone. No ticket is ever stranded.
  Fixture fixture = MakeFixture(5000, 1, 59);
  const AlgorithmA serial(&fixture.index);
  Session session(&fixture.index, {.num_threads = 1});
  session.Pause();
  const Ticket ticket = session.Submit(fixture.queries[0]).value();
  session.Shutdown();
  auto result = session.Poll(ticket);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok());
  std::vector<Occurrence> expected =
      serial.Search(fixture.queries[0].pattern, fixture.queries[0].k);
  NormalizeOccurrences(&expected);
  EXPECT_EQ(result->hits, expected);
  // And admission is closed for good.
  EXPECT_EQ(session.Submit(fixture.queries[0]).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServeSessionTest, WaitForTimesOutThenSucceeds) {
  Fixture fixture = MakeFixture(5000, 1, 37);
  Session session(&fixture.index, {.num_threads = 1});
  session.Pause();
  const Ticket ticket = session.Submit(fixture.queries[0]).value();
  const auto timed_out =
      session.WaitFor(ticket, std::chrono::milliseconds(20));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTimedOut);
  // The ticket survived the timeout and is still collectable.
  session.Resume();
  const auto result = session.WaitFor(ticket, std::chrono::seconds(30));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok());
}

TEST(ServeSessionTest, ShardedSessionMatchesMonolithicEngine) {
  Rng rng(41);
  const auto text = testing::RandomDna(30000, &rng);
  const auto mono_index = FmIndex::Build(text).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.overlap = 64;
  const auto sharded =
      ShardedIndex::Build(text, shard_options).value();
  const AlgorithmA serial(&mono_index);
  Session session(&sharded, {.num_threads = 3});
  ASSERT_EQ(session.num_indexes(), 4u);
  const uint64_t lookups_before = session.Stats().shard_exact_shortcuts;
  AlgorithmAScratch scratch;
  std::vector<Ticket> tickets;
  std::vector<BatchQuery> queries;
  uint64_t exact_tickets = 0;
  for (size_t i = 0; i < 30; ++i) {
    const size_t m = 10 + rng.NextBounded(10);
    const size_t pos = rng.NextBounded(text.size() - m);
    BatchQuery query;
    query.pattern.assign(text.begin() + pos, text.begin() + pos + m);
    query.k = static_cast<int32_t>(rng.NextBounded(3));
    exact_tickets += query.k == 0;
    tickets.push_back(session.Submit(query).value());
    queries.push_back(std::move(query));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto result = session.Wait(tickets[i]);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok());
    std::vector<Occurrence> expected =
        serial.Search(queries[i].pattern, queries[i].k, nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result->hits, expected) << "query " << i;
  }
  // Served k = 0 tickets take the same per-shard point lookup as batches.
  ASSERT_GT(exact_tickets, 0u);
  if (BWTK_METRICS_ENABLED) {
    EXPECT_EQ(session.Stats().shard_exact_shortcuts - lookups_before,
              exact_tickets);
  }
  // A pattern longer than the overlap is rejected at Submit, not served
  // wrong.
  BatchQuery too_long;
  too_long.pattern = testing::RandomDna(80, &rng);
  too_long.k = 0;
  const auto rejected = session.Submit(too_long);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeSessionTest, KErrorEngineFillsStats) {
  Fixture fixture = MakeFixture(8000, 5, 43);
  const KErrorSearch serial(&fixture.index);
  SessionOptions options;
  options.num_threads = 2;
  options.batch.engine = BatchEngine::kKError;
  Session session(&fixture.index, options);
  for (const BatchQuery& query : fixture.queries) {
    const Ticket ticket =
        session.Submit(BatchQuery{query.pattern, 1}).value();
    auto result = session.Wait(ticket);
    ASSERT_TRUE(result.ok());
    SearchStats serial_stats;
    std::vector<Occurrence> expected;
    for (const EditOccurrence& e :
         serial.Search(query.pattern, 1, &serial_stats)) {
      expected.push_back({e.position, e.edits});
    }
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result->hits, expected);
    EXPECT_EQ(result->stats.stree_nodes, serial_stats.stree_nodes);
    EXPECT_GT(result->stats.stree_nodes, 0u);
  }
}

TEST(ServeSessionTest, AsciiSubmitDecodesPerEngine) {
  Fixture fixture = MakeFixture(8000, 1, 47);
  SessionOptions options;
  options.num_threads = 1;
  options.batch.engine = BatchEngine::kWildcard;
  Session session(&fixture.index, options);
  // Wildcard syntax is accepted under the wildcard engine...
  const auto ticket = session.Submit("ac?t", 0);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(session.Wait(ticket.value()).ok());
  // ...garbage is a synchronous InvalidArgument, costing no ticket.
  const auto bad = session.Submit("ac!t", 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Stats().submitted, 1u);
}

TEST(ServeSessionTest, ConcurrentSubmittersAndCollectorsStress) {
  // TSan target: several threads submitting, waiting, and polling against
  // one Session while it serves — exercises every lock path at once.
  Fixture fixture = MakeFixture(20000, 8, 53);
  SessionOptions options;
  options.num_threads = 3;
  options.queue_capacity = 64;
  options.max_inflight = 64;
  Session session(&fixture.index, options);
  const AlgorithmA serial(&fixture.index);
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  constexpr int kClientThreads = 4;
  constexpr int kPerThread = 60;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      AlgorithmAScratch scratch;
      Rng rng(100 + static_cast<uint64_t>(c));
      for (int i = 0; i < kPerThread; ++i) {
        const BatchQuery& query =
            fixture.queries[rng.NextBounded(fixture.queries.size())];
        auto ticket = session.Submit(query);
        if (!ticket.ok()) {
          // kOverloaded is an acceptable answer under pressure; back off.
          ASSERT_EQ(ticket.status().code(), StatusCode::kOverloaded);
          std::this_thread::yield();
          continue;
        }
        auto result = session.Wait(ticket.value());
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE(result->status.ok());
        std::vector<Occurrence> expected =
            serial.Search(query.pattern, query.k, nullptr, &scratch);
        NormalizeOccurrences(&expected);
        if (result->hits != expected) ++mismatches;
        ++served;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  const serve::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServeSessionTest, ResultCacheServesDuplicatesByteIdentical) {
  Fixture fixture = MakeFixture(20000, 10, 61);
  const AlgorithmA serial(&fixture.index);
  SessionOptions options;
  options.num_threads = 2;
  options.batch.result_cache.enabled = true;
  Session session(&fixture.index, options);
  AlgorithmAScratch scratch;

  // First wave: cold — every query executes for real.
  std::vector<QueryResult> cold;
  for (const BatchQuery& query : fixture.queries) {
    auto result = session.Wait(session.Submit(query).value());
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->cache_served);
    cold.push_back(std::move(result).value());
  }
  // Second wave: warm — identical hits AND identical stats (the cache
  // stores the original execution's stats), flagged cache_served.
  for (size_t i = 0; i < fixture.queries.size(); ++i) {
    auto result = session.Wait(session.Submit(fixture.queries[i]).value());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->cache_served) << "query " << i;
    EXPECT_EQ(result->hits, cold[i].hits) << "query " << i;
    EXPECT_EQ(result->stats, cold[i].stats) << "query " << i;
    std::vector<Occurrence> expected = serial.Search(
        fixture.queries[i].pattern, fixture.queries[i].k, nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result->hits, expected) << "query " << i;
  }
}

TEST(ServeSessionTest, CachedDuplicatesAcrossPauseResumeAndDrainExactlyOnce) {
  // Duplicate queries queued behind a Pause, released by Resume, and
  // flushed by Drain must each produce exactly one callback with hits
  // byte-identical to the serial engine — whether served cold, warm from
  // the cache, or raced between the two.
  Fixture fixture = MakeFixture(10000, 3, 67);
  const AlgorithmA serial(&fixture.index);
  SessionOptions options;
  options.num_threads = 2;
  options.queue_capacity = 256;
  options.max_inflight = 256;
  options.batch.result_cache.enabled = true;
  Session session(&fixture.index, options);

  std::vector<std::vector<Occurrence>> expected;
  AlgorithmAScratch scratch;
  for (const BatchQuery& query : fixture.queries) {
    std::vector<Occurrence> hits =
        serial.Search(query.pattern, query.k, nullptr, &scratch);
    NormalizeOccurrences(&hits);
    expected.push_back(std::move(hits));
  }

  std::mutex mu;
  std::set<Ticket> seen;
  std::atomic<int> mismatches{0};
  std::atomic<int> fired{0};
  constexpr int kRepeats = 8;
  auto submit_all = [&] {
    for (size_t q = 0; q < fixture.queries.size(); ++q) {
      for (int r = 0; r < kRepeats; ++r) {
        ASSERT_TRUE(session
                        .Submit(fixture.queries[q],
                                [&, q](QueryResult result) {
                                  {
                                    std::lock_guard<std::mutex> lock(mu);
                                    ASSERT_TRUE(
                                        seen.insert(result.ticket).second);
                                  }
                                  ASSERT_TRUE(result.status.ok());
                                  if (result.hits != expected[q]) ++mismatches;
                                  ++fired;
                                })
                        .ok());
      }
    }
  };
  submit_all();         // wave 1: races cold execution against cache fills
  session.Pause();
  submit_all();         // wave 2: parks behind the pause
  session.Resume();
  submit_all();         // wave 3: mostly warm
  session.Drain();      // flushes everything; exactly-once still holds
  const int total = static_cast<int>(fixture.queries.size()) * kRepeats * 3;
  EXPECT_EQ(fired.load(), total);
  EXPECT_EQ(seen.size(), static_cast<size_t>(total));
  EXPECT_EQ(mismatches.load(), 0);
  const serve::SessionStats stats = session.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(total));
}

// --- Wire round-trips ----------------------------------------------------

TEST(ServeWireTest, QueryAndResultRoundTrip) {
  serve::QueryRequest request;
  request.request_id = 0xDEADBEEFCAFEBABEull;
  request.k = 3;
  request.pattern = "acgt?acg";
  std::string bytes;
  serve::AppendQueryFrame(request, &bytes);

  serve::FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, serve::FrameType::kQuery);
  const auto parsed = serve::ParseQueryPayload((*frame)->payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);

  serve::QueryResponse response;
  response.request_id = request.request_id;
  response.status = serve::WireStatus::kOk;
  response.hits = {{5, 0}, {17, 2}, {123456789, 3}};
  bytes.clear();
  serve::AppendResultFrame(response, &bytes);
  reader.Feed(bytes.data(), bytes.size());
  auto result_frame = reader.Next();
  ASSERT_TRUE(result_frame.ok());
  ASSERT_TRUE(result_frame->has_value());
  const auto parsed_response =
      serve::ParseResultPayload((*result_frame)->payload);
  ASSERT_TRUE(parsed_response.ok());
  EXPECT_EQ(*parsed_response, response);
}

TEST(ServeWireTest, FrameReaderHandlesBytewiseDelivery) {
  // TCP can fragment arbitrarily: a frame fed one byte at a time must
  // come out whole, and only when complete.
  std::string bytes;
  serve::AppendHelloFrame(&bytes);
  serve::AppendStatsFrame(&bytes);
  serve::FrameReader reader;
  std::vector<serve::FrameType> types;
  for (const char byte : bytes) {
    reader.Feed(&byte, 1);
    for (;;) {
      auto frame = reader.Next();
      ASSERT_TRUE(frame.ok());
      if (!frame->has_value()) break;
      types.push_back((*frame)->type);
    }
  }
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], serve::FrameType::kHello);
  EXPECT_EQ(types[1], serve::FrameType::kStats);
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(ServeWireTest, OversizedAndMalformedPayloadsAreErrors) {
  serve::FrameReader reader(/*max_payload=*/16);
  const char huge_header[5] = {0x40, 0x00, 0x00, 0x00, 0x03};  // 64 > 16
  reader.Feed(huge_header, sizeof(huge_header));
  EXPECT_FALSE(reader.Next().ok());

  EXPECT_FALSE(serve::ParseQueryPayload("abc").ok());
  EXPECT_FALSE(serve::ParseResultPayload("").ok());
  EXPECT_FALSE(serve::ParseHelloAckPayload("x").ok());
  EXPECT_FALSE(serve::ValidateHelloPayload("short").ok());
  // RESULT whose num_hits lies about the remaining bytes must not OOM.
  std::string lying;
  serve::QueryResponse empty;
  serve::AppendResultFrame(empty, &lying);
  std::string payload = lying.substr(5);
  payload[payload.size() - 4] = static_cast<char>(0xFF);  // num_hits = huge
  payload[payload.size() - 3] = static_cast<char>(0xFF);
  EXPECT_FALSE(serve::ParseResultPayload(payload).ok());
}

TEST(ServeWireTest, QueryStatsFlagIsBackwardCompatibleTrailer) {
  // A flagless QUERY must stay byte-identical to the pre-trailer encoding
  // (old servers keep accepting new clients), and the trailer must
  // round-trip when present.
  serve::QueryRequest plain;
  plain.request_id = 7;
  plain.k = 2;
  plain.pattern = "acgtacgt";
  std::string plain_bytes;
  serve::AppendQueryFrame(plain, &plain_bytes);

  serve::QueryRequest with_stats = plain;
  with_stats.want_stats = true;
  std::string stats_bytes;
  serve::AppendQueryFrame(with_stats, &stats_bytes);
  // Exactly one extra byte — the flags trailer — and nothing else moved.
  ASSERT_EQ(stats_bytes.size(), plain_bytes.size() + 1);
  EXPECT_EQ(stats_bytes.substr(5, plain_bytes.size() - 5),
            plain_bytes.substr(5));

  const auto parsed_plain = serve::ParseQueryPayload(plain_bytes.substr(5));
  ASSERT_TRUE(parsed_plain.ok());
  EXPECT_FALSE(parsed_plain->want_stats);
  EXPECT_EQ(*parsed_plain, plain);
  const auto parsed_stats = serve::ParseQueryPayload(stats_bytes.substr(5));
  ASSERT_TRUE(parsed_stats.ok());
  EXPECT_TRUE(parsed_stats->want_stats);
  EXPECT_EQ(*parsed_stats, with_stats);
}

TEST(ServeWireTest, ResultStatsTrailerRoundTrip) {
  serve::QueryResponse response;
  response.request_id = 99;
  response.hits = {{5, 0}, {17, 2}};
  response.has_stats = true;
  response.cache_served = true;
  response.stats.stree_nodes = 11;
  response.stats.extend_calls = 22;
  response.stats.completed_paths = 33;
  response.stats.tau_pruned = 44;
  response.stats.budget_pruned = 55;
  response.stats.mtree_nodes = 66;
  response.stats.mtree_leaves = 77;
  response.stats.reused_nodes = 88;
  response.stats.derived_runs = 99;
  response.queue_ns = 123456;
  response.search_ns = 654321;
  std::string bytes;
  serve::AppendResultFrame(response, &bytes);
  const auto parsed = serve::ParseResultPayload(bytes.substr(5));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, response);

  // Trailerless RESULT parses with has_stats = false (old servers).
  serve::QueryResponse bare;
  bare.request_id = 99;
  bare.hits = response.hits;
  bytes.clear();
  serve::AppendResultFrame(bare, &bytes);
  const auto parsed_bare = serve::ParseResultPayload(bytes.substr(5));
  ASSERT_TRUE(parsed_bare.ok());
  EXPECT_FALSE(parsed_bare->has_stats);
  EXPECT_EQ(parsed_bare->hits, response.hits);

  // A truncated trailer is a malformed payload, not a silent accept.
  std::string full;
  serve::AppendResultFrame(response, &full);
  std::string truncated = full.substr(5);
  truncated.pop_back();
  EXPECT_FALSE(serve::ParseResultPayload(truncated).ok());
}

TEST(ServeWireTest, StatusMappingIsStableAndTotal) {
  using serve::WireStatus;
  EXPECT_EQ(serve::ToWireStatus(Status::OK()), WireStatus::kOk);
  EXPECT_EQ(serve::ToWireStatus(Status::Overloaded("x")),
            WireStatus::kOverloaded);
  EXPECT_EQ(serve::ToWireStatus(Status::Unavailable("x")),
            WireStatus::kUnavailable);
  EXPECT_EQ(serve::ToWireStatus(Status::TimedOut("x")),
            WireStatus::kTimedOut);
  EXPECT_EQ(serve::ToWireStatus(Status::InvalidArgument("x")),
            WireStatus::kInvalidArgument);
  // Codes without a wire value collapse to kInternal rather than leaking
  // enum ordinals onto the wire.
  EXPECT_EQ(serve::ToWireStatus(Status::Corruption("x")),
            WireStatus::kInternal);
  EXPECT_EQ(serve::FromWireStatus(WireStatus::kOverloaded, "m").code(),
            StatusCode::kOverloaded);
  EXPECT_EQ(serve::FromWireStatus(WireStatus::kOk, "").code(),
            StatusCode::kOk);
}

TEST(ServeWireTest, HelloAckAndStatsRoundTrip) {
  serve::HelloAck ack;
  ack.max_inflight = 256;
  ack.engine = "algorithm_a";
  ack.sharded = true;
  std::string bytes;
  serve::AppendHelloAckFrame(ack, &bytes);
  serve::FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  const auto frame = reader.Next();
  ASSERT_TRUE(frame.ok() && frame->has_value());
  const auto parsed = serve::ParseHelloAckPayload((*frame)->payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ack);

  serve::SessionStats stats;
  stats.queue_depth = 3;
  stats.running = 2;
  stats.inflight = 7;
  stats.submitted = 100;
  stats.completed = 93;
  stats.rejected_overloaded = 5;
  stats.rejected_unavailable = 1;
  bytes.clear();
  serve::AppendStatsResultFrame(stats, &bytes);
  reader.Feed(bytes.data(), bytes.size());
  const auto stats_frame = reader.Next();
  ASSERT_TRUE(stats_frame.ok() && stats_frame->has_value());
  const auto parsed_stats =
      serve::ParseStatsResultPayload((*stats_frame)->payload);
  ASSERT_TRUE(parsed_stats.ok());
  EXPECT_EQ(parsed_stats->submitted, 100u);
  EXPECT_EQ(parsed_stats->rejected_overloaded, 5u);
  EXPECT_EQ(parsed_stats->queue_depth, 3u);
}

namespace {

void PutU32(uint32_t value, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t value, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

}  // namespace

TEST(ServeWireTest, StatsResultRoundTripsAllTwelveFields) {
  serve::SessionStats stats;
  stats.queue_depth = 3;
  stats.running = 2;
  stats.inflight = 7;
  stats.submitted = 100;
  stats.completed = 93;
  stats.rejected_overloaded = 5;
  stats.rejected_unavailable = 1;
  stats.result_cache_hits = 22;
  stats.result_cache_misses = 33;
  stats.shard_exact_shortcuts = 44;
  stats.accepting = true;
  std::string bytes;
  serve::AppendStatsResultFrame(stats, &bytes);
  const auto parsed = serve::ParseStatsResultPayload(
      std::string_view(bytes).substr(5));  // strip the 5-byte frame header
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Slot 8 is reserved: still sent, always zero. It follows the frame
  // header, the u32 count and the first seven u64 fields.
  EXPECT_EQ(bytes.substr(5 + 4 + 7 * 8, 8), std::string(8, '\0'));
  EXPECT_EQ(parsed->rejected_unavailable, 1u);
  EXPECT_EQ(parsed->result_cache_hits, 22u);
  EXPECT_EQ(parsed->result_cache_misses, 33u);
  EXPECT_EQ(parsed->shard_exact_shortcuts, 44u);
  EXPECT_TRUE(parsed->accepting);
  stats.accepting = false;
  bytes.clear();
  serve::AppendStatsResultFrame(stats, &bytes);
  EXPECT_FALSE(serve::ParseStatsResultPayload(std::string_view(bytes)
                                                  .substr(5))
                   ->accepting);
}

TEST(ServeWireTest, StatsResultToleratesFutureExtraFields) {
  // A newer server may append fields; the count prefix tells this client to
  // skip what it does not know.
  std::string payload;
  PutU32(serve::kStatsResultFieldCount + 3, &payload);
  for (uint64_t i = 0; i < serve::kStatsResultFieldCount + 3; ++i) {
    PutU64(i + 1, &payload);
  }
  const auto parsed = serve::ParseStatsResultPayload(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->queue_depth, 1u);
  EXPECT_EQ(parsed->submitted, 4u);
  EXPECT_EQ(parsed->result_cache_hits, 9u);  // slot 8 (value 8) is skipped
  EXPECT_EQ(parsed->shard_exact_shortcuts, 11u);
  EXPECT_TRUE(parsed->accepting);  // field 12 == 12, nonzero
}

TEST(ServeWireTest, StatsResultZeroFillsFieldsFromOlderServers) {
  // An old server sends only the original 7 fields; the newer fields must
  // read as zero/false, not garbage.
  std::string payload;
  PutU32(7, &payload);
  for (uint64_t i = 0; i < 7; ++i) PutU64(100 + i, &payload);
  const auto parsed = serve::ParseStatsResultPayload(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->queue_depth, 100u);
  EXPECT_EQ(parsed->rejected_unavailable, 106u);
  EXPECT_EQ(parsed->result_cache_hits, 0u);
  EXPECT_EQ(parsed->shard_exact_shortcuts, 0u);
  EXPECT_FALSE(parsed->accepting);
}

TEST(ServeWireTest, StatsResultRejectsCountPayloadMismatch) {
  // The count must agree exactly with the payload size.
  std::string payload;
  PutU32(5, &payload);
  for (uint64_t i = 0; i < 4; ++i) PutU64(i, &payload);  // one field short
  EXPECT_FALSE(serve::ParseStatsResultPayload(payload).ok());

  payload.clear();
  PutU32(2, &payload);
  for (uint64_t i = 0; i < 3; ++i) PutU64(i, &payload);  // one field extra
  EXPECT_FALSE(serve::ParseStatsResultPayload(payload).ok());

  // Truncated before the count itself.
  EXPECT_FALSE(serve::ParseStatsResultPayload("\x01\x02").ok());
  // Empty payload is malformed too (the count prefix is mandatory).
  EXPECT_FALSE(serve::ParseStatsResultPayload("").ok());
}

// --------------------------------------------------- bidirectional serving

TEST(ServeSessionTest, BidirectionalSessionMatchesSerialAndReportsEngine) {
  Fixture fixture = MakeFixture(15000, 20, 211);
  const auto bidir = BiFmIndex::Build(fixture.text).value();
  const AlgorithmA serial(&fixture.index);
  SessionOptions options;
  options.num_threads = 2;
  options.batch.engine = BatchEngine::kBidirectional;
  options.batch.bidir_indexes = {&bidir};
  Session session(&fixture.index, options);
  AlgorithmAScratch scratch;
  for (const BatchQuery& query : fixture.queries) {
    const Ticket ticket = session.Submit(query).value();
    const auto result = session.Wait(ticket);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->status.ok());
    EXPECT_EQ(result->engine, BatchEngine::kBidirectional);
    std::vector<Occurrence> expected =
        serial.Search(query.pattern, query.k, nullptr, &scratch);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result->hits, expected);
  }
}

TEST(ServeSessionTest, PerTicketEngineOverrideRunsAndIsReported) {
  Fixture fixture = MakeFixture(12000, 4, 223);
  const auto bidir = BiFmIndex::Build(fixture.text).value();
  SessionOptions options;
  options.num_threads = 2;
  options.batch.bidir_indexes = {&bidir};  // engine stays kAlgorithmA
  Session session(&fixture.index, options);
  const BatchQuery& query = fixture.queries[0];

  const Ticket plain = session.Submit(query).value();
  const auto base = session.Wait(plain).value();
  EXPECT_EQ(base.engine, BatchEngine::kAlgorithmA);

  for (const BatchEngine engine :
       {BatchEngine::kSTree, BatchEngine::kBidirectional}) {
    const Ticket ticket =
        session.Submit(query, engine, Callback{}).value();
    const auto result = session.Wait(ticket).value();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.engine, engine);
    EXPECT_EQ(result.hits, base.hits);  // Hamming engines agree exactly
  }
}

TEST(ServeSessionTest, AutoSessionResolvesPerTicket) {
  Fixture fixture = MakeFixture(20000, 1, 227);
  const auto bidir = BiFmIndex::Build(fixture.text).value();
  SessionOptions options;
  options.num_threads = 1;
  options.batch.engine = BatchEngine::kAuto;
  options.batch.bidir_indexes = {&bidir};
  Session session(&fixture.index, options);
  const AlgorithmA serial(&fixture.index);

  // A long high-k read resolves into the bidirectional regime; an exact
  // short read stays on Algorithm A. Both must match the serial engine and
  // report the engine they actually ran under.
  BatchQuery long_read;
  long_read.pattern.assign(fixture.text.begin() + 500,
                           fixture.text.begin() + 600);
  long_read.k = 3;
  BatchQuery exact;
  exact.pattern.assign(fixture.text.begin() + 80, fixture.text.begin() + 100);
  exact.k = 0;

  for (const BatchQuery& query : {long_read, exact}) {
    const Ticket ticket = session.Submit(query).value();
    const auto result = session.Wait(ticket).value();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.engine,
              AutoPickEngine(query.pattern.size(), query.k, true));
    std::vector<Occurrence> expected =
        serial.Search(query.pattern, query.k);
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result.hits, expected);
  }
  const Ticket ticket = session.Submit(long_read).value();
  EXPECT_EQ(session.Wait(ticket)->engine, BatchEngine::kBidirectional);
}

TEST(ServeSessionTest, UnavailableOverrideRejectedAtSubmitTyped) {
  Fixture fixture = MakeFixture(8000, 2, 229);
  Session session(&fixture.index, {.num_threads = 1});
  // No bidir_indexes on this Session: the override must be refused with a
  // typed error at admission, leaving the Session fully serviceable.
  const auto rejected = session.Submit(fixture.queries[0],
                                       BatchEngine::kBidirectional,
                                       Callback{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("bidirectional"),
            std::string::npos);
  const Ticket ticket = session.Submit(fixture.queries[0]).value();
  EXPECT_TRUE(session.Wait(ticket)->status.ok());
}

TEST(ServeWireTest, WireEngineIdsAreFrozenAndTotal) {
  // The on-wire ids are a frozen contract, independent of BatchEngine's
  // C++ declaration order — new engines append, nothing renumbers.
  EXPECT_EQ(static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kAlgorithmA)),
            0);
  EXPECT_EQ(static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kSTree)), 1);
  EXPECT_EQ(static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kKError)), 2);
  EXPECT_EQ(static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kWildcard)),
            3);
  EXPECT_EQ(
      static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kBidirectional)),
      5);
  EXPECT_EQ(static_cast<uint8_t>(serve::ToWireEngine(BatchEngine::kAuto)), 6);
  for (const BatchEngine engine :
       {BatchEngine::kAlgorithmA, BatchEngine::kSTree, BatchEngine::kKError,
        BatchEngine::kWildcard, BatchEngine::kBidirectional,
        BatchEngine::kAuto}) {
    const auto back = serve::FromWireEngine(
        static_cast<uint8_t>(serve::ToWireEngine(engine)));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), engine);
  }
  // Id 4 stays reserved for the retired dictionary engine: never reused,
  // answered with a typed error that names it.
  EXPECT_EQ(static_cast<uint8_t>(serve::WireEngine::kDictionary), 4);
  const auto retired = serve::FromWireEngine(4);
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired.status().message().find("dictionary"), std::string::npos)
      << retired.status().message();
  EXPECT_EQ(serve::FromWireEngine(7).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::FromWireEngine(255).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeWireTest, EngineOverrideTrailerIsBackwardCompatible) {
  // Per docs/SERVING.md §4.4: new QUERY fields append at the END. The
  // engine byte rides behind the flags byte; a flagless QUERY stays
  // byte-identical to the original encoding, and every flag combination
  // round-trips.
  serve::QueryRequest plain;
  plain.request_id = 9;
  plain.k = 1;
  plain.pattern = "acgtacgt";
  std::string plain_bytes;
  serve::AppendQueryFrame(plain, &plain_bytes);

  serve::QueryRequest with_engine = plain;
  with_engine.engine_override = BatchEngine::kBidirectional;
  std::string engine_bytes;
  serve::AppendQueryFrame(with_engine, &engine_bytes);
  // Two extra bytes — flags + engine — appended after the old payload.
  ASSERT_EQ(engine_bytes.size(), plain_bytes.size() + 2);
  EXPECT_EQ(engine_bytes.substr(5, plain_bytes.size() - 5),
            plain_bytes.substr(5));

  serve::QueryRequest both = with_engine;
  both.want_stats = true;
  std::string both_bytes;
  serve::AppendQueryFrame(both, &both_bytes);
  ASSERT_EQ(both_bytes.size(), plain_bytes.size() + 2);

  for (const auto* request : {&plain, &with_engine, &both}) {
    std::string bytes;
    serve::AppendQueryFrame(*request, &bytes);
    const auto parsed = serve::ParseQueryPayload(bytes.substr(5));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, *request);
  }

  // An engine byte with an unknown id is a decode error, not a silent
  // fallback; same for a flags byte announcing an engine that is not there.
  std::string bad = engine_bytes.substr(5);
  bad[bad.size() - 1] = static_cast<char>(200);
  EXPECT_FALSE(serve::ParseQueryPayload(bad).ok());
  EXPECT_FALSE(
      serve::ParseQueryPayload(engine_bytes.substr(5, engine_bytes.size() - 6))
          .ok());
}

}  // namespace
}  // namespace bwtk
