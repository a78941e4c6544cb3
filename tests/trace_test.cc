// Per-query tracing: span bookkeeping on Trace, deterministic sampling and
// the slow-query heap in TraceSink, thread-local activation, engine
// integration (spans + the per-depth node profile), BatchSearcher wiring,
// Chrome trace-event export, and the flat-totals JSON round trip. Also the
// JsonWriter escaping edge cases the exporter depends on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "search/batch_searcher.h"
#include "search/searcher.h"
#include "search/stree_search.h"
#include "simulate/genome_generator.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::SampleWithFlips;

// --- JsonEscape edge cases ------------------------------------------------

TEST(JsonEscapeTest, ControlCharactersAndQuoting) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  // Other control bytes become \u00XX.
  EXPECT_EQ(obs::JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(obs::JsonEscape(std::string("\x1f", 1)), "\\u001f");
  // NUL embedded mid-string must not truncate.
  EXPECT_EQ(obs::JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(obs::JsonEscape(""), "");
}

TEST(JsonEscapeTest, NonAsciiBytesPassThrough) {
  // UTF-8 multibyte sequences are valid JSON string content as-is.
  const std::string utf8 = "g\xc3\xa9nome";
  EXPECT_EQ(obs::JsonEscape(utf8), utf8);
}

// --- Trace span/profile bookkeeping ---------------------------------------

TEST(TraceTest, SpanNestingDepths) {
  obs::Trace trace;
  const size_t outer = trace.OpenSpan("outer");
  const size_t inner = trace.OpenSpan("inner");
  trace.CloseSpan(inner);
  trace.CloseSpan(outer);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "outer");
  EXPECT_EQ(trace.spans[0].depth, 0u);
  EXPECT_EQ(trace.spans[1].name, "inner");
  EXPECT_EQ(trace.spans[1].depth, 1u);
  // A sibling after the nested pair reopens at depth 1.
  const size_t second = trace.OpenSpan("second");
  trace.CloseSpan(second);
  EXPECT_EQ(trace.spans[2].depth, 0u);
}

TEST(TraceTest, SpanCapCountsDrops) {
  obs::Trace trace;
  for (size_t i = 0; i < obs::kTraceMaxSpans + 10; ++i) {
    trace.CloseSpan(trace.OpenSpan("s"));
  }
  EXPECT_EQ(trace.spans.size(), obs::kTraceMaxSpans);
  EXPECT_EQ(trace.dropped_spans, 10u);
}

TEST(TraceTest, NodeProfileAndDerivedQuantities) {
  obs::Trace trace;
  EXPECT_EQ(trace.NodesExpanded(), 0u);
  EXPECT_EQ(trace.MaxDepth(), 0u);
  trace.CountNode(0);
  trace.CountNode(3);
  trace.CountNode(3);
  ASSERT_EQ(trace.nodes_per_depth.size(), 4u);
  EXPECT_EQ(trace.nodes_per_depth[0], 1u);
  EXPECT_EQ(trace.nodes_per_depth[3], 2u);
  EXPECT_EQ(trace.NodesExpanded(), 3u);
  EXPECT_EQ(trace.MaxDepth(), 3u);
}

// --- Sink: sampling, slow-query heap, caps --------------------------------

TEST(TraceSinkTest, SamplingIsDeterministicAndRateShaped) {
  obs::TraceSink sink({.sample_rate = 0.25});
  size_t sampled = 0;
  const size_t n = 4000;
  for (uint64_t id = 0; id < n; ++id) {
    if (sink.ShouldSample(id)) ++sampled;
    // Same id, same answer, every time.
    EXPECT_EQ(sink.ShouldSample(id), sink.ShouldSample(id));
  }
  // Hash-threshold sampling: expect ~25% +- a generous margin.
  EXPECT_GT(sampled, n / 8);
  EXPECT_LT(sampled, n / 2);

  obs::TraceSink all({.sample_rate = 1.0});
  obs::TraceSink none({.sample_rate = 0.0});
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_TRUE(all.ShouldSample(id));
    EXPECT_FALSE(none.ShouldSample(id));
  }
}

TEST(TraceSinkTest, SeedDrawsADifferentSample) {
  obs::TraceSink a({.sample_rate = 0.3, .sample_seed = 1});
  obs::TraceSink b({.sample_rate = 0.3, .sample_seed = 2});
  bool differs = false;
  for (uint64_t id = 0; id < 1000 && !differs; ++id) {
    differs = a.ShouldSample(id) != b.ShouldSample(id);
  }
  EXPECT_TRUE(differs);
}

obs::Trace MakeTrace(uint64_t id, uint64_t wall_ns) {
  obs::Trace trace;
  trace.trace_id = id;
  trace.engine = "test";
  trace.wall_ns = wall_ns;
  return trace;
}

TEST(TraceSinkTest, SlowLogKeepsTheWorstN) {
  obs::TraceSink sink({.sample_rate = 1.0, .slow_trace_count = 3});
  // Offer wall times 10, 20, ..., 100 in shuffled-ish order.
  const uint64_t walls[] = {30, 100, 10, 70, 50, 90, 20, 80, 60, 40};
  uint64_t id = 0;
  for (const uint64_t w : walls) sink.Offer(MakeTrace(id++, w));
  const auto slow = sink.SlowTraces();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].wall_ns, 100u);
  EXPECT_EQ(slow[1].wall_ns, 90u);
  EXPECT_EQ(slow[2].wall_ns, 80u);
  EXPECT_EQ(sink.traces_offered(), 10u);
  // Sampled list keeps everything (under the cap), sorted by id.
  const auto sampled = sink.SampledTraces();
  ASSERT_EQ(sampled.size(), 10u);
  for (size_t i = 1; i < sampled.size(); ++i) {
    EXPECT_LT(sampled[i - 1].trace_id, sampled[i].trace_id);
  }
}

TEST(TraceSinkTest, SampledListCapCountsDropsButSlowLogStillSees) {
  obs::TraceSink sink(
      {.sample_rate = 1.0, .slow_trace_count = 2, .max_sampled_traces = 4});
  for (uint64_t id = 0; id < 10; ++id) {
    sink.Offer(MakeTrace(id, /*wall_ns=*/id * 100));
  }
  EXPECT_EQ(sink.SampledTraces().size(), 4u);
  EXPECT_EQ(sink.traces_dropped(), 6u);
  // The slowest traces arrived after the cap filled; the slow log must
  // still have caught them.
  const auto slow = sink.SlowTraces();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].wall_ns, 900u);
  EXPECT_EQ(slow[1].wall_ns, 800u);
}

TEST(TraceSinkTest, AuxTracesStayOutOfSlowLog) {
  obs::TraceSink sink({.sample_rate = 1.0, .slow_trace_count = 2});
  sink.OfferAux(MakeTrace(1, /*wall_ns=*/1000000));
  sink.Offer(MakeTrace(2, /*wall_ns=*/5));
  const auto slow = sink.SlowTraces();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace_id, 2u);
  EXPECT_EQ(sink.AuxTraces().size(), 1u);
  EXPECT_EQ(sink.SampledTraces().size(), 1u);
}

TEST(TraceSinkTest, ClearEmptiesEverything) {
  obs::TraceSink sink({.sample_rate = 1.0});
  sink.Offer(MakeTrace(1, 10));
  sink.OfferAux(MakeTrace(2, 10));
  sink.Clear();
  EXPECT_TRUE(sink.SampledTraces().empty());
  EXPECT_TRUE(sink.SlowTraces().empty());
  EXPECT_TRUE(sink.AuxTraces().empty());
  EXPECT_EQ(sink.traces_offered(), 0u);
}

// --- Activation -----------------------------------------------------------

TEST(TraceActivationTest, ScopedActivationRestoresPrevious) {
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
  obs::Trace outer;
  {
    obs::ScopedTraceActivation activate_outer(&outer);
    EXPECT_EQ(obs::ActiveTrace(), &outer);
    obs::Trace inner;
    {
      obs::ScopedTraceActivation activate_inner(&inner);
      EXPECT_EQ(obs::ActiveTrace(), &inner);
    }
    EXPECT_EQ(obs::ActiveTrace(), &outer);
  }
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
}

TEST(TraceActivationTest, ScopedQueryTraceActivatesOnlyWhenSampled) {
  obs::TraceSink sink({.sample_rate = 1.0});
  {
    obs::ScopedQueryTrace qt(&sink, 7, "engine", 2, 30);
    EXPECT_TRUE(qt.active());
    ASSERT_NE(obs::ActiveTrace(), nullptr);
    EXPECT_EQ(obs::ActiveTrace()->trace_id, 7u);
    obs::ActiveTrace()->CountNode(1);
    SearchStats stats;
    stats.stree_nodes = 5;
    qt.Finish(3, stats);
  }
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
  const auto sampled = sink.SampledTraces();
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(sampled[0].engine, "engine");
  EXPECT_EQ(sampled[0].k, 2);
  EXPECT_EQ(sampled[0].pattern_length, 30u);
  EXPECT_EQ(sampled[0].matches, 3u);
  EXPECT_EQ(sampled[0].stats.stree_nodes, 5u);
  EXPECT_EQ(sampled[0].NodesExpanded(), 1u);

  {
    obs::ScopedQueryTrace qt(nullptr, 7, "engine", 2, 30);
    EXPECT_FALSE(qt.active());
    EXPECT_EQ(obs::ActiveTrace(), nullptr);
  }
  obs::TraceSink never({.sample_rate = 0.0});
  {
    obs::ScopedQueryTrace qt(&never, 7, "engine", 2, 30);
    EXPECT_FALSE(qt.active());
    EXPECT_EQ(obs::ActiveTrace(), nullptr);
  }
  EXPECT_EQ(never.traces_offered(), 0u);
}

// --- Engine integration ---------------------------------------------------

class TraceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeOptions options;
    options.length = 20000;
    options.repeat_fraction = 0.3;
    options.seed = 99;
    genome_ = GenerateGenome(options).value();
    searcher_ = std::make_unique<KMismatchSearcher>(
        KMismatchSearcher::Build(genome_).value());
  }

  std::vector<DnaCode> genome_;
  std::unique_ptr<KMismatchSearcher> searcher_;
};

TEST_F(TraceEngineTest, AlgorithmAFillsSpansAndDepthProfile) {
  Rng rng(5);
  const auto pattern = SampleWithFlips(genome_, 1000, 40, 2, &rng);
  obs::TraceSink sink({.sample_rate = 1.0});
  std::vector<Occurrence> traced;
  {
    obs::ScopedQueryTrace qt(&sink, 1, "algorithm_a", 2, pattern.size());
    SearchStats stats;
    traced = searcher_->Search(pattern, 2, &stats);
    qt.Finish(traced.size(), stats);
  }
  const auto sampled = sink.SampledTraces();
  ASSERT_EQ(sampled.size(), 1u);
  const obs::Trace& trace = sampled[0];
  if (BWTK_METRICS_ENABLED) {
    // Expansions were recorded along the descent (depth-m completions via a
    // *derived* chain are not expansions, so MaxDepth may sit below m).
    EXPECT_GT(trace.MaxDepth(), 0u);
    EXPECT_LE(trace.MaxDepth(), pattern.size());
    EXPECT_GT(trace.NodesExpanded(), 0u);
    EXPECT_EQ(trace.NodesExpanded(), trace.stats.stree_nodes);
    std::set<std::string_view> names;
    for (const auto& span : trace.spans) names.insert(span.name);
    EXPECT_TRUE(names.count("tree_traversal"));
    EXPECT_TRUE(names.count("locate"));
  }
  // Tracing must not change results.
  EXPECT_EQ(traced, searcher_->Search(pattern, 2));
}

TEST_F(TraceEngineTest, STreeSearchTracesToo) {
  Rng rng(6);
  const auto pattern = SampleWithFlips(genome_, 500, 25, 1, &rng);
  obs::TraceSink sink({.sample_rate = 1.0});
  const STreeSearch engine(&searcher_->index());
  {
    obs::ScopedQueryTrace qt(&sink, 1, "stree", 1, pattern.size());
    SearchStats stats;
    const auto hits = engine.Search(pattern, 1, &stats);
    qt.Finish(hits.size(), stats);
  }
  const auto sampled = sink.SampledTraces();
  ASSERT_EQ(sampled.size(), 1u);
  if (BWTK_METRICS_ENABLED) {
    EXPECT_GT(sampled[0].NodesExpanded(), 0u);
    EXPECT_EQ(sampled[0].NodesExpanded(), sampled[0].stats.stree_nodes);
  }
}

TEST_F(TraceEngineTest, BatchSearcherSamplesEverythingAtRateOne) {
  Rng rng(7);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 16; ++i) {
    const size_t pos = 100 + i * 400;
    queries.push_back(
        {SampleWithFlips(genome_, pos, 30, static_cast<int32_t>(i % 3), &rng),
         static_cast<int32_t>(i % 3)});
  }

  BatchOptions plain_options;
  plain_options.num_threads = 2;
  BatchSearcher plain(*searcher_, plain_options);
  EXPECT_EQ(plain.trace_sink(), nullptr);
  const BatchResult expected = plain.Search(queries);

  BatchOptions traced_options;
  traced_options.num_threads = 2;
  traced_options.trace_sample_rate = 1.0;
  traced_options.slow_trace_count = 4;
  BatchSearcher traced(*searcher_, traced_options);
  const BatchResult result = traced.Search(queries);

  // Tracing must not perturb results.
  EXPECT_EQ(result.occurrences, expected.occurrences);

  const obs::TraceSink* sink = traced.trace_sink();
  if (!BWTK_METRICS_ENABLED) {
    EXPECT_EQ(sink, nullptr);
    return;
  }
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->traces_offered(), queries.size());
  const auto sampled = sink->SampledTraces();
  ASSERT_EQ(sampled.size(), queries.size());
  // Trace ids are (batch 0) query indices, in order.
  for (size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_EQ(sampled[i].trace_id, i);
    EXPECT_EQ(sampled[i].engine, "algorithm_a");
    EXPECT_EQ(sampled[i].k, queries[i].k);
    EXPECT_EQ(sampled[i].matches, expected.occurrences[i].size());
  }
  EXPECT_EQ(sink->SlowTraces().size(), 4u);
  // One aux lane per worker that participated in the batch.
  const auto aux = sink->AuxTraces();
  EXPECT_GE(aux.size(), 1u);
  EXPECT_LE(aux.size(), 2u);
  for (const auto& lane : aux) {
    EXPECT_EQ(lane.engine, "batch_worker");
    ASSERT_EQ(lane.spans.size(), 2u);
    EXPECT_EQ(lane.spans[0].name, "queue_wait");
    EXPECT_EQ(lane.spans[1].name, "worker_search");
  }

  // A second batch gets a distinct id space (batch_seq high bits).
  traced.Search(queries);
  EXPECT_EQ(sink->traces_offered(), 2 * queries.size());
  const auto after = sink->SampledTraces();
  ASSERT_EQ(after.size(), 2 * queries.size());
  EXPECT_EQ(after[queries.size()].trace_id, uint64_t{1} << 32);
}

TEST_F(TraceEngineTest, InterleavedWalksTraceOneQueryEach) {
  // A bidirectional pool walks several queries at once on each worker; each
  // walk must record into its own trace, with its own stats and nodes.
  const BiFmIndex bidir = BiFmIndex::Build(genome_).value();
  Rng rng(8);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 40; ++i) {
    const size_t length = 30 + rng.NextBounded(50);
    const int32_t k = static_cast<int32_t>(i % 4);
    queries.push_back(
        {SampleWithFlips(genome_, rng.NextBounded(genome_.size() - length),
                         length, k, &rng),
         k});
  }
  BatchOptions options;
  options.num_threads = 2;
  options.engine = BatchEngine::kBidirectional;
  options.bidir_indexes = {&bidir};
  BatchSearcher plain(*searcher_, options);
  const BatchResult expected = plain.Search(queries);
  options.trace_sample_rate = 1.0;
  BatchSearcher traced(*searcher_, options);
  const BatchResult result = traced.Search(queries);
  EXPECT_EQ(result.occurrences, expected.occurrences);
  EXPECT_EQ(result.stats, expected.stats);
  if (!BWTK_METRICS_ENABLED) return;

  const BidirectionalSearch engine(&bidir);
  const auto sampled = traced.trace_sink()->SampledTraces();
  ASSERT_EQ(sampled.size(), queries.size());
  for (size_t i = 0; i < sampled.size(); ++i) {
    const obs::Trace& trace = sampled[i];
    EXPECT_EQ(trace.trace_id, i);
    EXPECT_EQ(trace.engine, "bidirectional");
    EXPECT_EQ(trace.matches, expected.occurrences[i].size());
    SearchStats alone;
    engine.Search(queries[i].pattern, queries[i].k, &alone);
    EXPECT_EQ(trace.stats, alone) << "query " << i;
    EXPECT_EQ(trace.NodesExpanded(), trace.stats.stree_nodes) << "query " << i;
    // wall_ns times the walk's own turns, which its one span also covers.
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_EQ(trace.spans[0].name, "bidir_scheme_walk");
    EXPECT_EQ(trace.spans[0].dur_ns, trace.wall_ns);
  }
}

// --- Export ---------------------------------------------------------------

TEST(TraceExportTest, TotalsRoundTripThroughJsonParser) {
  obs::Trace trace = MakeTrace(42, 12345);
  trace.k = 3;
  trace.pattern_length = 50;
  trace.matches = 7;
  trace.prefix_table_hits = 9;
  trace.CountNode(2);
  trace.CountNode(2);
  trace.CountNode(5);
  trace.CloseSpan(trace.OpenSpan("a"));
  trace.CloseSpan(trace.OpenSpan("b"));

  const std::string json = obs::TraceTotalsToJson(trace);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, obs::JsonValue::Kind::kObject);
  std::map<std::string, uint64_t> fields;
  for (const auto& [key, value] : parsed->members) {
    ASSERT_TRUE(value.is_uint) << key;  // flat: unsigned integers only
    fields[key] = value.uint_value;
  }
  EXPECT_EQ(fields.at("trace_id"), 42u);
  EXPECT_EQ(fields.at("k"), 3u);
  EXPECT_EQ(fields.at("pattern_length"), 50u);
  EXPECT_EQ(fields.at("wall_ns"), 12345u);
  EXPECT_EQ(fields.at("matches"), 7u);
  EXPECT_EQ(fields.at("prefix_table_hits"), 9u);
  EXPECT_EQ(fields.at("nodes_expanded"), 3u);
  EXPECT_EQ(fields.at("max_depth"), 5u);
  EXPECT_EQ(fields.at("spans"), 2u);
  EXPECT_EQ(fields.at("dropped_spans"), 0u);
}

TEST(TraceExportTest, TraceFileJsonHasChromeShape) {
  obs::TraceSink sink({.sample_rate = 1.0, .slow_trace_count = 2});
  obs::Trace trace = MakeTrace(1, 500);
  trace.begin_ns = 1000;
  trace.spans.push_back({"tree_traversal", 1100, 300, 0});
  sink.Offer(std::move(trace));
  sink.OfferAux(MakeTrace(0xFFFF0000ULL, 800));

  const std::string json = obs::TraceFileJson(sink);
  // Structural markers every Chrome-trace viewer needs.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"tree_traversal\""), std::string::npos);
  // The bwtk extension block with summaries and the slow log.
  EXPECT_NE(json.find("\"bwtk\":{"), std::string::npos);
  EXPECT_NE(json.find("\"summaries\":["), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\":["), std::string::npos);
  EXPECT_NE(json.find("\"nodes_per_depth\""), std::string::npos);
}

TEST(TraceExportTest, WriteTraceFileRoundTrip) {
  obs::TraceSink sink({.sample_rate = 1.0});
  sink.Offer(MakeTrace(3, 700));
  const std::string path =
      ::testing::TempDir() + "/bwtk_trace_test_out.json";
  const Status status = obs::WriteTraceFile(sink, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), obs::TraceFileJson(sink) + "\n");
  std::remove(path.c_str());

  EXPECT_FALSE(
      obs::WriteTraceFile(sink, "/nonexistent-dir-xyz/trace.json").ok());
}

}  // namespace
}  // namespace bwtk
