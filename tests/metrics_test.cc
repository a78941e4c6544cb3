// Tests for the observability subsystem: SearchStats merge algebra,
// histogram bucketing, the metrics registry (counters, phase timers,
// cross-thread aggregation), the JSON writer, and the report helpers that
// write stats and registry deltas as JSON.
// The sibling TU metrics_disabled_test.cc (compiled into this binary with
// BWTK_DISABLE_METRICS) verifies the hooks compile to no-ops.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bwtk.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace bwtk {
namespace {

using obs::BucketIndex;
using obs::BucketLowerBound;
using obs::BucketUpperBound;
using obs::Histogram;
using obs::JsonWriter;
using obs::MetricsBlock;
using obs::MetricsRegistry;

static_assert(BWTK_METRICS_ENABLED == 1,
              "this TU must be compiled with metrics enabled");

SearchStats MakeStats(uint64_t base) {
  SearchStats s;
  s.stree_nodes = base + 1;
  s.extend_calls = base + 2;
  s.completed_paths = base + 3;
  s.tau_pruned = base + 4;
  s.budget_pruned = base + 5;
  s.mtree_nodes = base + 6;
  s.mtree_leaves = base + 7;
  s.reused_nodes = base + 8;
  s.derived_runs = base + 9;
  return s;
}

SearchStats Sum(SearchStats a, const SearchStats& b) {
  a += b;
  return a;
}

TEST(SearchStatsTest, MergeIsAssociativeAndCommutative) {
  const SearchStats a = MakeStats(10);
  const SearchStats b = MakeStats(200);
  const SearchStats c = MakeStats(3000);
  EXPECT_EQ(Sum(Sum(a, b), c), Sum(a, Sum(b, c)));
  EXPECT_EQ(Sum(a, b), Sum(b, a));
  // Identity: the default-constructed stats are the neutral element.
  EXPECT_EQ(Sum(a, SearchStats{}), a);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is exactly zero; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(BucketIndex(0), 0u);
  EXPECT_EQ(BucketIndex(1), 1u);
  EXPECT_EQ(BucketIndex(2), 2u);
  EXPECT_EQ(BucketIndex(3), 2u);
  EXPECT_EQ(BucketIndex(4), 3u);
  for (size_t b = 1; b < obs::kHistBuckets; ++b) {
    EXPECT_EQ(BucketIndex(BucketLowerBound(b)), b) << "bucket " << b;
    EXPECT_EQ(BucketIndex(BucketUpperBound(b)), b) << "bucket " << b;
    if (b > 1) {
      EXPECT_EQ(BucketUpperBound(b - 1) + 1, BucketLowerBound(b));
    }
  }
  EXPECT_EQ(BucketUpperBound(64), ~uint64_t{0});
}

TEST(HistogramTest, ObserveCountsSumsAndBuckets) {
  Histogram h;
  for (const uint64_t v : {0ull, 1ull, 5ull, 5ull, 1024ull}) h.Observe(v);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1035u);
  EXPECT_EQ(h.buckets[0], 1u);   // the zero
  EXPECT_EQ(h.buckets[1], 1u);   // 1
  EXPECT_EQ(h.buckets[3], 2u);   // 5 twice, in [4, 7]
  EXPECT_EQ(h.buckets[11], 1u);  // 1024, in [1024, 2047]
}

TEST(HistogramTest, MergeAndDiff) {
  Histogram a;
  Histogram b;
  a.Observe(3);
  b.Observe(3);
  b.Observe(100);
  Histogram merged = a;
  merged += b;
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 106u);
  merged -= b;
  EXPECT_EQ(merged, a);
}

TEST(JsonWriterTest, NestedStructure) {
  JsonWriter w;
  w.BeginObject()
      .Key("a")
      .Value(uint64_t{1})
      .Key("b")
      .BeginArray()
      .Value("x")
      .Value(2.5)
      .Value(true)
      .Null()
      .EndArray()
      .Key("c")
      .BeginObject()
      .EndObject()
      .EndObject();
  EXPECT_EQ(std::move(w).TakeString(),
            "{\"a\":1,\"b\":[\"x\",2.5,true,null],\"c\":{}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.Value("quote\" back\\ newline\n ctrl\x01");
  EXPECT_EQ(w.str(), "\"quote\\\" back\\\\ newline\\n ctrl\\u0001\"");
}

TEST(MetricsRegistryTest, CountersTimersAndHistogramsReachSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const MetricsBlock before = registry.Snapshot();
  BWTK_METRIC_COUNT(kCounterMergeCalls);
  BWTK_METRIC_COUNT_N(kCounterMergeCalls, 4);
  BWTK_METRIC_COUNT2(kCounterRijBuilds, 2, kCounterRijCacheHits, 3);
  BWTK_METRIC_OBSERVE(kHistChainLength, 9);
  {
    BWTK_SCOPED_TIMER(kPhaseMerge);
  }
  const MetricsBlock delta = obs::Diff(registry.Snapshot(), before);
  EXPECT_EQ(delta.counters[obs::kCounterMergeCalls], 5u);
  EXPECT_EQ(delta.counters[obs::kCounterRijBuilds], 2u);
  EXPECT_EQ(delta.counters[obs::kCounterRijCacheHits], 3u);
  EXPECT_EQ(delta.hists[obs::kHistChainLength].count, 1u);
  EXPECT_EQ(delta.hists[obs::kHistChainLength].sum, 9u);
  EXPECT_EQ(delta.phase_calls[obs::kPhaseMerge], 1u);
}

TEST(MetricsRegistryTest, ExitedThreadsFoldIntoRetiredTotals) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const MetricsBlock before = registry.Snapshot();
  std::thread worker([] {
    for (int i = 0; i < 1000; ++i) BWTK_METRIC_COUNT(kCounterBatchQueries);
  });
  worker.join();
  const MetricsBlock delta = obs::Diff(registry.Snapshot(), before);
  EXPECT_EQ(delta.counters[obs::kCounterBatchQueries], 1000u);
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  BWTK_METRIC_COUNT(kCounterRankCalls);
  registry.Reset();
  const MetricsBlock zeroed = registry.Snapshot();
  EXPECT_EQ(zeroed, MetricsBlock{});
}

TEST(MetricsIntegrationTest, SearchFillsRegistryAndHistograms) {
  const auto searcher =
      KMismatchSearcher::Build("acagacagatacacagacttacagaca").value();
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const MetricsBlock before = registry.Snapshot();
  const auto hits = searcher.Search("acagaca", /*k=*/2).value();
  EXPECT_FALSE(hits.empty());
  const MetricsBlock delta = obs::Diff(registry.Snapshot(), before);
  EXPECT_GT(delta.counters[obs::kCounterExtendAllCalls], 0u);
  EXPECT_GT(delta.counters[obs::kCounterRankAllCalls], 0u);
  EXPECT_GT(delta.counters[obs::kCounterLocateCalls], 0u);
  EXPECT_EQ(delta.phase_calls[obs::kPhaseTreeTraversal], 1u);
  EXPECT_EQ(delta.hists[obs::kHistQueryNanos].count, 1u);
  EXPECT_EQ(delta.hists[obs::kHistHitsPerQuery].count, 1u);
  EXPECT_EQ(delta.hists[obs::kHistHitsPerQuery].sum, hits.size());
}

TEST(MetricsIntegrationTest, BatchSearchRecordsWorkerPhases) {
  const auto searcher =
      KMismatchSearcher::Build("acagacagatacacagacttacagaca").value();
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const MetricsBlock before = registry.Snapshot();
  {
    BatchSearcher batch(searcher, {.num_threads = 2});
    const auto result =
        batch.Search(std::vector<std::string>{"acagaca", "ttacag"}, 1);
    ASSERT_TRUE(result.ok());
  }
  const MetricsBlock delta = obs::Diff(registry.Snapshot(), before);
  EXPECT_EQ(delta.counters[obs::kCounterBatchBatches], 1u);
  EXPECT_EQ(delta.counters[obs::kCounterBatchQueries], 2u);
  EXPECT_GT(delta.phase_calls[obs::kPhaseQueueWait], 0u);
  EXPECT_GT(delta.phase_calls[obs::kPhaseWorkerSearch], 0u);
}

TEST(ReportJsonTest, AppendHelpersWriteEverySection) {
  MetricsBlock metrics;
  metrics.counters[obs::kCounterRankCalls] = 3;
  metrics.phase_nanos[obs::kPhaseMerge] = 17;
  metrics.phase_calls[obs::kPhaseMerge] = 2;
  metrics.hists[obs::kHistQueryNanos].Observe(1000);
  JsonWriter w;
  w.BeginObject().Key("stats");
  obs::AppendSearchStats(MakeStats(0), &w);
  w.Key("counters");
  obs::AppendCounters(metrics, &w);
  w.Key("phases");
  obs::AppendPhases(metrics, &w);
  w.Key("histograms");
  obs::AppendHistograms(metrics, &w);
  w.EndObject();
  const std::string json = std::move(w).TakeString();
  for (const char* needle :
       {"\"stats\":{\"stree_nodes\":1,\"extend_calls\":2,",
        "\"derived_runs\":9}", "\"rank_calls\":3",
        "\"merge\":{\"nanos\":17,\"calls\":2}",
        "\"query_nanos\":{\"count\":1,\"sum\":1000,\"buckets\":[[10,1]]}"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in " << json;
  }
  EXPECT_TRUE(obs::ParseJson(json).ok()) << json;
}

TEST(MetricsCatalogTest, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string_view> names;
  for (uint32_t i = 0; i < obs::kNumCounters; ++i) {
    names.push_back(obs::CounterName(static_cast<obs::CounterId>(i)));
  }
  for (uint32_t i = 0; i < obs::kNumPhases; ++i) {
    names.push_back(obs::PhaseName(static_cast<obs::PhaseId>(i)));
  }
  for (uint32_t i = 0; i < obs::kNumHists; ++i) {
    names.push_back(obs::HistName(static_cast<obs::HistId>(i)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace bwtk
