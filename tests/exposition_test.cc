// Tests for the live-telemetry stack introduced for the serving tier:
// the windowed registry aggregator (obs/windowed.h), the Prometheus/JSON
// exposition renderers (obs/exposition.h), the generic JSON reader they
// feed (obs/json.h), and the embedded HTTP listener with its health
// semantics (serve/http_exposition.h). The HTTP tests drive a real
// Session + Server on loopback, so /metrics and /varz.json are exercised
// against genuine traffic, and /readyz is observed flipping on Drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "serve/client.h"
#include "serve/http_exposition.h"
#include "serve/server.h"
#include "serve/session.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using obs::EstimateQuantile;
using obs::JsonValue;
using obs::MetricsBlock;
using obs::MetricsRegistry;
using obs::ParseJson;
using obs::WindowDelta;
using obs::WindowedAggregator;
using obs::WindowedAggregatorOptions;
using obs::WindowView;

constexpr uint64_t kSecond = 1'000'000'000;

// A counter the library never touches outside the serving layer; these
// tests run no serving traffic while using it, so deltas are exact.
constexpr obs::CounterId kScratchCounter = obs::kCounterServeServedWildcard;

class WindowedAggregatorTest : public ::testing::Test {
 protected:
  // The registry is a process singleton; start each test from zero.
  void SetUp() override { MetricsRegistry::Instance().Reset(); }
  void TearDown() override { MetricsRegistry::Instance().Reset(); }
};

TEST_F(WindowedAggregatorTest, EmptyBeforeAnyBucketCloses) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  // No ticks at all: nothing to answer from.
  WindowDelta window = aggregator.Window(10 * kSecond);
  EXPECT_EQ(window.buckets, 0u);
  EXPECT_EQ(window.span_nanos, 0u);
  EXPECT_EQ(window.resets, 0u);
  EXPECT_EQ(window.delta, MetricsBlock{});

  // The first tick only establishes the baseline — still no bucket.
  aggregator.TickAt(5 * kSecond);
  window = aggregator.Window(10 * kSecond);
  EXPECT_EQ(window.buckets, 0u);
  EXPECT_EQ(window.span_nanos, 0u);
  EXPECT_EQ(aggregator.ticks(), 1u);
}

TEST_F(WindowedAggregatorTest, ZeroSpanRequestIsEmpty) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.TickAt(1 * kSecond);
  obs::Count(kScratchCounter, 3);
  aggregator.TickAt(2 * kSecond);
  const WindowDelta window = aggregator.Window(0);
  EXPECT_EQ(window.buckets, 0u);
  EXPECT_EQ(window.delta.counters[kScratchCounter], 0u);
}

TEST_F(WindowedAggregatorTest, DeltasLandInPerTickBuckets) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.TickAt(10 * kSecond);  // baseline

  obs::Count(kScratchCounter, 5);
  aggregator.TickAt(11 * kSecond);
  obs::Count(kScratchCounter, 7);
  aggregator.TickAt(12 * kSecond);

  // Newest bucket only.
  WindowDelta newest = aggregator.Window(1 * kSecond);
  EXPECT_EQ(newest.buckets, 1u);
  EXPECT_EQ(newest.span_nanos, 1 * kSecond);
  EXPECT_EQ(newest.delta.counters[kScratchCounter], 7u);

  // Both buckets.
  WindowDelta both = aggregator.Window(2 * kSecond);
  EXPECT_EQ(both.buckets, 2u);
  EXPECT_EQ(both.span_nanos, 2 * kSecond);
  EXPECT_EQ(both.delta.counters[kScratchCounter], 12u);

  // Asking for more than exists reports only what is covered — rates must
  // divide by span_nanos, not the request.
  WindowDelta more = aggregator.Window(60 * kSecond);
  EXPECT_EQ(more.buckets, 2u);
  EXPECT_EQ(more.span_nanos, 2 * kSecond);
  EXPECT_EQ(more.delta.counters[kScratchCounter], 12u);

  // Cumulative is the latest snapshot, not a delta.
  EXPECT_EQ(aggregator.Cumulative().counters[kScratchCounter], 12u);
}

TEST_F(WindowedAggregatorTest, RingRolloverEvictsOldestBuckets) {
  WindowedAggregatorOptions options;
  options.bucket_width_nanos = kSecond;
  options.num_buckets = 3;
  WindowedAggregator aggregator(&MetricsRegistry::Instance(), options);
  aggregator.TickAt(0);  // baseline

  // Close 5 buckets of 1 event each into a 3-slot ring.
  for (uint64_t t = 1; t <= 5; ++t) {
    obs::Count(kScratchCounter, 1);
    aggregator.TickAt(t * kSecond);
  }
  const WindowDelta window = aggregator.Window(60 * kSecond);
  EXPECT_EQ(window.buckets, 3u);  // the two oldest were overwritten
  EXPECT_EQ(window.span_nanos, 3 * kSecond);
  EXPECT_EQ(window.delta.counters[kScratchCounter], 3u);
  EXPECT_EQ(aggregator.ticks(), 6u);
}

TEST_F(WindowedAggregatorTest, ResetMidWindowYieldsEmptyFlaggedBucket) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.TickAt(1 * kSecond);
  obs::Count(kScratchCounter, 100);
  aggregator.TickAt(2 * kSecond);

  // Reset drops the live value below the aggregator's last snapshot. The
  // next tick must not fabricate a huge wrapped delta; it records an empty
  // bucket flagged as a reset and re-bases.
  MetricsRegistry::Instance().Reset();
  obs::Count(kScratchCounter, 4);
  aggregator.TickAt(3 * kSecond);

  EXPECT_EQ(aggregator.resets(), 1u);
  const WindowDelta window = aggregator.Window(2 * kSecond);
  EXPECT_EQ(window.buckets, 2u);
  EXPECT_EQ(window.resets, 1u);
  // Pre-reset bucket contributes its 100; the reset bucket contributes
  // nothing (never a negative / wrapped value).
  EXPECT_EQ(window.delta.counters[kScratchCounter], 100u);

  // After re-basing, deltas are exact again.
  obs::Count(kScratchCounter, 9);
  aggregator.TickAt(4 * kSecond);
  EXPECT_EQ(aggregator.Window(kSecond).delta.counters[kScratchCounter], 9u);
}

TEST_F(WindowedAggregatorTest, BackwardsTimeIsClamped) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.TickAt(10 * kSecond);
  obs::Count(kScratchCounter, 2);
  // An earlier timestamp must not underflow the bucket span.
  aggregator.TickAt(4 * kSecond);
  const WindowDelta window = aggregator.Window(60 * kSecond);
  EXPECT_EQ(window.buckets, 1u);
  EXPECT_EQ(window.span_nanos, 0u);
  EXPECT_EQ(window.delta.counters[kScratchCounter], 2u);
}

TEST_F(WindowedAggregatorTest, WindowQuantilesAreMonotone) {
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.TickAt(1 * kSecond);
  // A spread of observations across several log2 buckets.
  for (uint64_t v : {100u, 200u, 400u, 800u, 1600u, 3200u, 6400u, 12800u,
                     25600u, 1000000u}) {
    obs::Observe(obs::kHistQueryNanos, v);
  }
  aggregator.TickAt(2 * kSecond);
  const WindowDelta window = aggregator.Window(kSecond);
  const obs::Histogram& hist = window.delta.hists[obs::kHistQueryNanos];
  ASSERT_EQ(hist.count, 10u);
  const uint64_t p50 = EstimateQuantile(hist, 0.50);
  const uint64_t p95 = EstimateQuantile(hist, 0.95);
  const uint64_t p99 = EstimateQuantile(hist, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0u);
  // An empty window's quantiles are all zero (and still monotone).
  const obs::Histogram empty;
  EXPECT_EQ(EstimateQuantile(empty, 0.99), 0u);
}

// --- JSON reader ---------------------------------------------------------

TEST(ParseJsonTest, ScalarsAndContainers) {
  auto doc = ParseJson(R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, null],
                           "e": {"nested": 18446744073709551615},
                           "f": 99999999999999999999999, "g": -1})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("a")->AsUint(), 1u);
  EXPECT_TRUE(doc->Get("a")->is_uint);
  EXPECT_DOUBLE_EQ(doc->Get("b")->AsNumber(), -2.5);
  EXPECT_FALSE(doc->Get("b")->is_uint);
  EXPECT_EQ(doc->Get("c")->string_value, "x\ny");
  ASSERT_EQ(doc->Get("d")->array.size(), 2u);
  EXPECT_TRUE(doc->Get("d")->array[0].bool_value);
  EXPECT_EQ(doc->Get("d")->array[1].kind, JsonValue::Kind::kNull);
  // Max uint64 round-trips exactly through the is_uint side channel.
  EXPECT_EQ(doc->Get("e", "nested")->AsUint(), ~uint64_t{0});
  // An integer past uint64 and a negative integer are numbers, never uints.
  EXPECT_FALSE(doc->Get("f")->is_uint);
  EXPECT_DOUBLE_EQ(doc->Get("f")->AsNumber(), 1e23);
  EXPECT_FALSE(doc->Get("g")->is_uint);
  EXPECT_DOUBLE_EQ(doc->Get("g")->AsNumber(), -1.0);
  // Missing paths are nullptr at any depth.
  EXPECT_EQ(doc->Get("e", "missing"), nullptr);
  EXPECT_EQ(doc->Get("missing", "nested"), nullptr);
}

TEST(ParseJsonTest, UnicodeEscapes) {
  auto doc = ParseJson(R"(["Aé", "😀"])");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->array[0].string_value, "A\xc3\xa9");
  EXPECT_EQ(doc->array[1].string_value, "\xf0\x9f\x98\x80");
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  // Nesting beyond the depth cap is a clean error, not a stack overflow.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// --- Renderers -----------------------------------------------------------

std::vector<WindowView> OneWindow(const MetricsBlock& delta,
                                  uint64_t span_nanos) {
  WindowDelta window;
  window.delta = delta;
  window.span_nanos = span_nanos;
  window.buckets = 1;
  return {WindowView{"10s", window}};
}

TEST(PrometheusRenderTest, EmitsWellFormedFamilies) {
  MetricsBlock total;
  total.counters[obs::kCounterServeSubmitted] = 42;
  total.phase_nanos[obs::kPhaseWorkerSearch] = 1000;
  total.phase_calls[obs::kPhaseWorkerSearch] = 2;
  for (uint64_t v : {10u, 1000u, 100000u}) {
    total.hists[obs::kHistQueryNanos].Observe(v);
  }

  MetricsBlock delta;
  delta.counters[obs::kCounterServeCompleted] = 5;
  const std::string text = obs::RenderPrometheusText(
      total, OneWindow(delta, 10 * kSecond),
      {{"bwtk_ready", 1.0, {}, "readiness"}});

  // Counters carry the prefix, the _total suffix, and HELP/TYPE headers.
  EXPECT_NE(text.find("# TYPE bwtk_serve_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("bwtk_serve_submitted_total 42\n"), std::string::npos);
  // Phase counters are labeled, not exploded into per-phase names.
  EXPECT_NE(text.find("bwtk_phase_nanos_total{phase=\"worker_search\"} 1000"),
            std::string::npos);
  // Histograms expose cumulative le-buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE bwtk_query_nanos histogram"),
            std::string::npos);
  EXPECT_NE(text.find("bwtk_query_nanos_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("bwtk_query_nanos_count 3"), std::string::npos);
  EXPECT_NE(text.find("bwtk_query_nanos_sum 101010"), std::string::npos);
  // Window gauges are labeled by window and metric; rate = 5 / 10s.
  EXPECT_NE(text.find("bwtk_window_events{metric=\"serve_completed\","
                      "window=\"10s\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("bwtk_window_rate{metric=\"serve_completed\","
                      "window=\"10s\"} 0.5"),
            std::string::npos);
  // Extra serving-layer gauges pass through.
  EXPECT_NE(text.find("# TYPE bwtk_ready gauge"), std::string::npos);
  EXPECT_NE(text.find("bwtk_ready 1\n"), std::string::npos);
  // Exposition format: every line is a comment or `name{labels} value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    const std::string_view line =
        std::string_view(text).substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string_view::npos) << line;
      EXPECT_EQ(line.substr(0, 5), "bwtk_") << line;
    }
    start = end + 1;
  }
}

TEST(PrometheusRenderTest, LabelEscaping) {
  EXPECT_EQ(obs::PrometheusLabelEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(WindowsJsonTest, RoundTripsThroughParser) {
  MetricsBlock delta;
  delta.counters[obs::kCounterBatchQueries] = 30;
  for (uint64_t v : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    delta.hists[obs::kHistQueryNanos].Observe(v);
  }
  obs::JsonWriter writer;
  obs::AppendWindowsJson(OneWindow(delta, 10 * kSecond), &writer);
  auto doc = ParseJson(std::move(writer).TakeString());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  EXPECT_DOUBLE_EQ(doc->Get("10s", "seconds")->AsNumber(), 10.0);
  EXPECT_EQ(doc->Get("10s", "counters", "batch_queries")->AsUint(), 30u);
  EXPECT_DOUBLE_EQ(doc->Get("10s", "rates", "batch_queries")->AsNumber(),
                   3.0);
  const JsonValue* latency = doc->Get("10s", "latency", "query_nanos");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Get("count")->AsUint(), 5u);
  const double p50 = latency->Get("p50")->AsNumber();
  const double p95 = latency->Get("p95")->AsNumber();
  const double p99 = latency->Get("p99")->AsNumber();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
}

// --- HTTP endpoints over a live serving stack ----------------------------

struct HttpReply {
  int code = 0;
  std::string body;
};

// Tiny blocking HTTP client (the listener closes after each response).
HttpReply HttpGet(uint16_t port, const std::string& target,
                  const std::string& method = "GET") {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: test\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return reply;
  reply.code = std::atoi(response.c_str() + response.find(' '));
  reply.body = response.substr(head_end + 4);
  return reply;
}

TEST(HttpExpositionTest, ServesTelemetryAndHealthOverLiveTraffic) {
  MetricsRegistry::Instance().Reset();
  Rng rng(97);
  std::vector<DnaCode> text = testing::RandomDna(20000, &rng);
  FmIndex index = FmIndex::Build(text).value();
  serve::Session session(&index, {.num_threads = 2});
  serve::Server server(&session);
  ASSERT_TRUE(server.Start().ok());

  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.Tick();  // baseline
  serve::HttpExpositionServer exposition(&aggregator, &session, &server);
  ASSERT_TRUE(exposition.Start().ok()) << "http listener failed to bind";
  ASSERT_NE(exposition.port(), 0);

  // Not ready until the operator says so.
  EXPECT_EQ(HttpGet(exposition.port(), "/readyz").code, 503);
  exposition.SetReady(true);
  EXPECT_EQ(HttpGet(exposition.port(), "/readyz").code, 200);
  EXPECT_EQ(HttpGet(exposition.port(), "/healthz").code, 200);

  // Run real traffic through the front-end so the telemetry has content.
  auto client = serve::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 8; ++i) {
    std::string pattern;
    for (size_t j = 0; j < 12; ++j) {
      pattern.push_back(CodeToChar(text[1000 + 100 * i + j]));
    }
    auto response = (*client)->Query(pattern, 1);
    ASSERT_TRUE(response.ok());
  }
  aggregator.Tick();  // close a bucket containing the traffic

  // /metrics: Prometheus text with the serve counters and window series.
  const HttpReply metrics = HttpGet(exposition.port(), "/metrics");
  ASSERT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.body.find("bwtk_serve_submitted_total 8"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("bwtk_serve_served_algorithm_a_total 8"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("bwtk_window_rate{metric=\"serve_completed\","
                              "window=\"10s\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("bwtk_ready 1"), std::string::npos);

  // /varz.json: parses; sessions stats and per-connection table line up.
  const HttpReply varz = HttpGet(exposition.port(), "/varz.json");
  ASSERT_EQ(varz.code, 200);
  auto doc = ParseJson(varz.body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->Get("ready")->bool_value);
  EXPECT_EQ(doc->Get("engine")->string_value, "algorithm_a");
  EXPECT_EQ(doc->Get("session", "submitted")->AsUint(), 8u);
  EXPECT_EQ(doc->Get("session", "completed")->AsUint(), 8u);
  EXPECT_TRUE(doc->Get("session", "accepting")->bool_value);
  const JsonValue* connections = doc->Get("connections");
  ASSERT_NE(connections, nullptr);
  ASSERT_EQ(connections->array.size(), 1u);
  EXPECT_EQ(connections->array[0].Get("queries")->AsUint(), 8u);
  EXPECT_GT(connections->array[0].Get("bytes_in")->AsUint(), 0u);
  EXPECT_GT(connections->array[0].Get("bytes_out")->AsUint(), 0u);
  EXPECT_NE(doc->Get("windows", "10s", "counters", "serve_completed"),
            nullptr);
  EXPECT_NE(doc->Get("cumulative", "counters", "serve_submitted"), nullptr);

  // Unknown paths and non-GET methods are rejected, not crashed on.
  EXPECT_EQ(HttpGet(exposition.port(), "/nope").code, 404);
  EXPECT_EQ(HttpGet(exposition.port(), "/metrics", "POST").code, 405);

  // Drain: /readyz flips to 503 with no SetReady call; /healthz stays 200.
  session.Drain();
  EXPECT_EQ(HttpGet(exposition.port(), "/readyz").code, 503);
  EXPECT_EQ(HttpGet(exposition.port(), "/healthz").code, 200);
  const HttpReply drained = HttpGet(exposition.port(), "/varz.json");
  ASSERT_EQ(drained.code, 200);
  auto drained_doc = ParseJson(drained.body);
  ASSERT_TRUE(drained_doc.ok());
  EXPECT_FALSE(drained_doc->Get("ready")->bool_value);
  EXPECT_FALSE(drained_doc->Get("session", "accepting")->bool_value);

  exposition.Stop();
  server.Stop();
  MetricsRegistry::Instance().Reset();
}

TEST(HttpExpositionTest, TickerProducesBucketsOnItsOwn) {
  MetricsRegistry::Instance().Reset();
  WindowedAggregatorOptions options;
  options.bucket_width_nanos = 20'000'000;  // 20ms buckets for a fast test
  options.num_buckets = 64;
  WindowedAggregator aggregator(&MetricsRegistry::Instance(), options);
  aggregator.StartTicker();
  obs::Count(kScratchCounter, 11);
  // Wait for the background ticker to close at least two buckets.
  for (int i = 0; i < 200 && aggregator.ticks() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  aggregator.StopTicker();
  EXPECT_GE(aggregator.ticks(), 3u);
  const WindowDelta window = aggregator.Window(uint64_t{3600} * kSecond);
  EXPECT_EQ(window.delta.counters[kScratchCounter], 11u);
  MetricsRegistry::Instance().Reset();
}

// Connects without sending anything (or sending slowly) — the slowloris
// posture against the serial accept loop.
int OpenRawConnection(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(HttpExpositionTest, StalledConnectionCannotBlockSubsequentScrapes) {
  MetricsRegistry::Instance().Reset();
  Rng rng(111);
  std::vector<DnaCode> text = testing::RandomDna(2000, &rng);
  FmIndex index = FmIndex::Build(text).value();
  serve::Session session(&index, {.num_threads = 1});
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.Tick();
  serve::HttpExpositionOptions options;
  options.request_timeout_ms = 300;
  serve::HttpExpositionServer exposition(&aggregator, &session, nullptr,
                                         options);
  ASSERT_TRUE(exposition.Start().ok());

  // A client that connects and then sends NOTHING holds the serial loop
  // for at most the per-request deadline; the probe behind it must still
  // be answered promptly.
  const int stalled = OpenRawConnection(exposition.port());
  ASSERT_GE(stalled, 0);
  const auto start = std::chrono::steady_clock::now();
  const HttpReply reply = HttpGet(exposition.port(), "/healthz");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(reply.code, 200);
  // Deadline (300ms) plus scheduling slack — far below a slowloris hang.
  EXPECT_LT(elapsed.count(), 5000);
  ::close(stalled);

  // Drip-feeding one byte per read resets a naive receive timeout but not
  // the overall deadline: the dripper must get cut off, and the next
  // scrape must succeed.
  const int dripper = OpenRawConnection(exposition.port());
  ASSERT_GE(dripper, 0);
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  bool cut_off = false;
  for (size_t i = 0; i < request.size(); ++i) {
    if (::send(dripper, &request[i], 1, MSG_NOSIGNAL) < 0) {
      cut_off = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // Past the deadline the server answers-or-drops and closes; detect the
    // close without blocking forever.
    char probe;
    const ssize_t n = ::recv(dripper, &probe, 1, MSG_DONTWAIT);
    if (n == 0) {
      cut_off = true;
      break;
    }
  }
  EXPECT_TRUE(cut_off) << "drip-fed request was serviced indefinitely";
  ::close(dripper);
  EXPECT_EQ(HttpGet(exposition.port(), "/healthz").code, 200);
  exposition.Stop();
  MetricsRegistry::Instance().Reset();
}

TEST(HttpExpositionTest, OversizedRequestHeadIsCappedNotBuffered) {
  MetricsRegistry::Instance().Reset();
  Rng rng(113);
  std::vector<DnaCode> text = testing::RandomDna(2000, &rng);
  FmIndex index = FmIndex::Build(text).value();
  serve::Session session(&index, {.num_threads = 1});
  WindowedAggregator aggregator(&MetricsRegistry::Instance());
  aggregator.Tick();
  serve::HttpExpositionOptions options;
  options.request_timeout_ms = 500;
  options.max_request_bytes = 256;
  serve::HttpExpositionServer exposition(&aggregator, &session, nullptr,
                                         options);
  ASSERT_TRUE(exposition.Start().ok());

  // A request head far beyond the cap: the listener must stop buffering at
  // max_request_bytes and move on rather than accumulate the garbage.
  const int fd = OpenRawConnection(exposition.port());
  ASSERT_GE(fd, 0);
  const std::string garbage(64 * 1024, 'x');
  (void)!::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
  ::close(fd);

  // The listener survives and keeps serving.
  EXPECT_EQ(HttpGet(exposition.port(), "/healthz").code, 200);
  exposition.Stop();
  MetricsRegistry::Instance().Reset();
}

}  // namespace
}  // namespace bwtk
