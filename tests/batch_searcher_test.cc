// BatchSearcher: parallel batches must be bit-identical to serial Search
// over every query, under any thread count, including the scratch-reuse
// path. The stress cases are written to be meaningful under
// ThreadSanitizer: many small queries racing over one shared index.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
#include "search/batch_searcher.h"
#include "search/kerror_search.h"
#include "search/searcher.h"
#include "search/stree_search.h"
#include "search/wildcard_search.h"
#include "simulate/genome_generator.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

// A genome with repeat structure plus a mixed query workload: planted
// approximate occurrences, random patterns, and varying k.
struct Workload {
  KMismatchSearcher searcher;
  std::vector<BatchQuery> queries;
};

Workload MakeWorkload(size_t genome_size, size_t query_count, uint64_t seed) {
  GenomeOptions genome_options;
  genome_options.length = genome_size;
  genome_options.repeat_fraction = 0.3;
  genome_options.seed = seed;
  auto genome = GenerateGenome(genome_options).value();
  auto searcher = KMismatchSearcher::Build(genome).value();

  Rng rng(seed + 1);
  std::vector<BatchQuery> queries;
  queries.reserve(query_count);
  for (size_t i = 0; i < query_count; ++i) {
    const int32_t k = static_cast<int32_t>(i % 4);
    const size_t len = 20 + rng.NextBounded(30);
    if (i % 3 == 0) {
      queries.push_back({RandomDna(len, &rng), k});
    } else {
      const size_t pos = rng.NextBounded(genome.size() - len);
      queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
    }
  }
  return {std::move(searcher), std::move(queries)};
}

std::vector<std::vector<Occurrence>> SerialResults(
    const KMismatchSearcher& searcher, const std::vector<BatchQuery>& queries) {
  std::vector<std::vector<Occurrence>> out;
  out.reserve(queries.size());
  for (const BatchQuery& query : queries) {
    out.push_back(searcher.Search(query.pattern, query.k));
  }
  return out;
}

TEST(BatchSearcherTest, MatchesSerialOnOneTwoAndEightThreads) {
  Workload workload = MakeWorkload(20000, 60, 11);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  for (const int threads : {1, 2, 8}) {
    BatchSearcher batch(workload.searcher, {.num_threads = threads});
    ASSERT_EQ(batch.num_threads(), threads);
    const BatchResult result = batch.Search(workload.queries);
    ASSERT_EQ(result.occurrences.size(), workload.queries.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.occurrences[i], expected[i])
          << "query " << i << " with " << threads << " threads";
    }
  }
}

TEST(BatchSearcherTest, EmptyBatch) {
  const auto searcher = KMismatchSearcher::Build("acgtacgtacgt").value();
  BatchSearcher batch(searcher, {.num_threads = 4});
  const BatchResult result = batch.Search(std::vector<BatchQuery>{});
  EXPECT_TRUE(result.occurrences.empty());
  EXPECT_EQ(result.stats.extend_calls, 0u);
  EXPECT_EQ(result.failed_queries, 0u);
}

TEST(BatchSearcherTest, BatchLargerThanThreadCount) {
  // 2 threads, 50 queries: the atomic cursor must hand out every index
  // exactly once and slot every result correctly.
  Workload workload = MakeWorkload(8000, 50, 23);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  BatchSearcher batch(workload.searcher, {.num_threads = 2});
  const BatchResult result = batch.Search(workload.queries);
  ASSERT_EQ(result.occurrences.size(), 50u);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.occurrences[i], expected[i]) << "query " << i;
  }
}

TEST(BatchSearcherTest, PerQueryMismatchBudgets) {
  // The same pattern under k = 0..3 in one batch: each slot must honor its
  // own budget (monotonically growing hit sets).
  const auto searcher =
      KMismatchSearcher::Build("acagacattacagacagtacagacaa").value();
  const auto pattern = testing::Codes("acagacat");
  std::vector<BatchQuery> queries;
  for (int32_t k = 0; k < 4; ++k) queries.push_back({pattern, k});
  BatchSearcher batch(searcher, {.num_threads = 3});
  const BatchResult result = batch.Search(queries);
  ASSERT_EQ(result.occurrences.size(), 4u);
  for (int32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(result.occurrences[k], searcher.Search(pattern, k)) << "k=" << k;
    if (k > 0) {
      EXPECT_GE(result.occurrences[k].size(),
                result.occurrences[k - 1].size());
    }
  }
}

TEST(BatchSearcherTest, AggregateStatsMatchSerialSums) {
  Workload workload = MakeWorkload(10000, 40, 31);
  SearchStats serial_total;
  for (const BatchQuery& query : workload.queries) {
    SearchStats stats;
    workload.searcher.Search(query.pattern, query.k, &stats);
    serial_total += stats;
  }
  BatchSearcher batch(workload.searcher, {.num_threads = 4});
  const BatchResult result = batch.Search(workload.queries);
  // Every counter is per-query work, independent of which thread ran it.
  EXPECT_EQ(result.stats.extend_calls, serial_total.extend_calls);
  EXPECT_EQ(result.stats.completed_paths, serial_total.completed_paths);
  EXPECT_EQ(result.stats.mtree_leaves, serial_total.mtree_leaves);
  EXPECT_EQ(result.stats.stree_nodes, serial_total.stree_nodes);
}

TEST(BatchSearcherTest, AsciiBatchAndFailFast) {
  const auto searcher = KMismatchSearcher::Build("acagacagacagacag").value();
  const std::vector<std::string> patterns = {"acag", "not-dna", "gaca"};

  BatchSearcher lenient(searcher, {.num_threads = 2, .fail_fast = false});
  const auto lenient_result = lenient.Search(patterns, 1);
  ASSERT_TRUE(lenient_result.ok());
  EXPECT_EQ(lenient_result->failed_queries, 1u);
  EXPECT_EQ(lenient_result->occurrences[0],
            searcher.Search("acag", 1).value());
  EXPECT_TRUE(lenient_result->occurrences[1].empty());
  EXPECT_EQ(lenient_result->occurrences[2],
            searcher.Search("gaca", 1).value());

  BatchSearcher strict(searcher, {.num_threads = 2, .fail_fast = true});
  EXPECT_FALSE(strict.Search(patterns, 1).ok());
}

TEST(BatchSearcherTest, ReusedBatchSearcherStaysCorrect) {
  // Several batches through one pool: scratches carry warm buffers from
  // batch to batch and must never leak state between queries.
  Workload workload = MakeWorkload(12000, 30, 47);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  BatchSearcher batch(workload.searcher, {.num_threads = 4});
  for (int round = 0; round < 3; ++round) {
    const BatchResult result = batch.Search(workload.queries);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.occurrences[i], expected[i])
          << "round " << round << " query " << i;
    }
  }
}

TEST(BatchSearcherTest, ScratchReuseMatchesFreshScratch) {
  // The serial engine with one long-lived scratch must equal fresh-scratch
  // searches — the single-thread core of the batch guarantee.
  Workload workload = MakeWorkload(10000, 40, 59);
  AlgorithmAScratch scratch;
  for (const BatchQuery& query : workload.queries) {
    EXPECT_EQ(
        workload.searcher.Search(query.pattern, query.k, nullptr, &scratch),
        workload.searcher.Search(query.pattern, query.k));
  }
}

TEST(BatchSearcherTest, STreeEngineMatchesSerialSTree) {
  Workload workload = MakeWorkload(10000, 40, 83);
  const STreeSearch serial(&workload.searcher.index());
  BatchOptions options;
  options.num_threads = 4;
  options.engine = BatchEngine::kSTree;
  BatchSearcher batch(workload.searcher, options);
  const BatchResult result = batch.Search(workload.queries);
  SearchStats serial_total;
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    SearchStats stats;
    EXPECT_EQ(result.occurrences[i],
              serial.Search(workload.queries[i].pattern,
                            workload.queries[i].k, &stats))
        << "query " << i;
    serial_total += stats;
  }
  EXPECT_EQ(result.stats.extend_calls, serial_total.extend_calls);
  EXPECT_EQ(result.stats.stree_nodes, serial_total.stree_nodes);
}

TEST(BatchSearcherTest, KErrorEngineMatchesProjectedSerialResults) {
  // The kerror engine routes KErrorSearch through the pool; each
  // EditOccurrence projects to Occurrence{position, edits} (length dropped).
  Workload workload = MakeWorkload(6000, 24, 89);
  const KErrorSearch serial(&workload.searcher.index());
  BatchOptions options;
  options.num_threads = 4;
  options.engine = BatchEngine::kKError;
  BatchSearcher batch(workload.searcher, options);
  std::vector<BatchQuery> queries = workload.queries;
  for (BatchQuery& query : queries) query.k = std::min(query.k, 2);
  const BatchResult result = batch.Search(queries);
  SearchStats serial_total;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchStats stats;
    std::vector<Occurrence> expected;
    for (const EditOccurrence& e :
         serial.Search(queries[i].pattern, queries[i].k, &stats)) {
      expected.push_back({e.position, e.edits});
    }
    NormalizeOccurrences(&expected);
    EXPECT_EQ(result.occurrences[i], expected) << "query " << i;
    serial_total += stats;
  }
  // The batch aggregate is the sum of the per-query serial stats
  // (docs/API.md, "Per-engine stats contract"): the walk counters are
  // filled, the Algorithm-A-only fields stay zero.
  EXPECT_EQ(result.stats.stree_nodes, serial_total.stree_nodes);
  EXPECT_EQ(result.stats.extend_calls, serial_total.extend_calls);
  EXPECT_EQ(result.stats.completed_paths, serial_total.completed_paths);
  EXPECT_EQ(result.stats.budget_pruned, serial_total.budget_pruned);
  EXPECT_GT(result.stats.stree_nodes, 0u);
  EXPECT_EQ(result.stats.mtree_nodes, 0u);
  EXPECT_EQ(result.stats.tau_pruned, 0u);
}

TEST(BatchSearcherTest, WildcardEngineMatchesSerialWildcardSearch) {
  // The wildcard engine decodes ASCII patterns with ParseWildcardPattern
  // and runs WildcardSearch per task.
  Workload workload = MakeWorkload(6000, 20, 53);
  const WildcardSearch serial(&workload.searcher.index());
  BatchOptions options;
  options.num_threads = 4;
  options.engine = BatchEngine::kWildcard;
  BatchSearcher batch(workload.searcher, options);
  // Punch wildcards into the encoded patterns and check against serial.
  std::vector<BatchQuery> queries = workload.queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].k = static_cast<int32_t>(i % 2);
    if (queries[i].pattern.size() > 4) {
      queries[i].pattern[1] = kWildcardCode;
      queries[i].pattern[queries[i].pattern.size() / 2] = kWildcardCode;
    }
  }
  const BatchResult result = batch.Search(queries);
  SearchStats serial_total;
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchStats stats;
    EXPECT_EQ(result.occurrences[i],
              serial.Search(queries[i].pattern, queries[i].k, &stats))
        << "query " << i;
    serial_total += stats;
  }
  EXPECT_EQ(result.stats.stree_nodes, serial_total.stree_nodes);
  EXPECT_EQ(result.stats.extend_calls, serial_total.extend_calls);
  EXPECT_EQ(result.stats.completed_paths, serial_total.completed_paths);

  // ASCII overload: '?' and 'n' must decode as wildcards under this engine.
  const Result<BatchResult> ascii = batch.Search({"a?ccn"}, 0);
  ASSERT_TRUE(ascii.ok());
  const auto decoded = ParseWildcardPattern("a?ccn");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(ascii.value().occurrences[0],
            serial.Search(decoded.value(), 0));
}

TEST(BatchSearcherTest, StressManySmallQueriesSharedIndex) {
  // ThreadSanitizer target: a large batch of small queries over one shared
  // index with more workers than cores, repeated so workers cross batch
  // boundaries while others still run.
  Workload workload = MakeWorkload(30000, 300, 71);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  BatchSearcher batch(workload.searcher, {.num_threads = 8});
  for (int round = 0; round < 2; ++round) {
    const BatchResult result = batch.Search(workload.queries);
    size_t mismatched = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (result.occurrences[i] != expected[i]) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "round " << round;
  }
}

TEST(BatchSearcherTest, BatchEngineNamesCoverBidirectionalAndAuto) {
  EXPECT_EQ(BatchEngineName(BatchEngine::kBidirectional), "bidirectional");
  EXPECT_EQ(BatchEngineName(BatchEngine::kAuto), "auto");
}

TEST(BatchSearcherTest, AutoPickEngineRespectsAvailabilityAndBudget) {
  // Without bidirectional indexes the pick is always Algorithm A.
  for (const size_t m : {8, 36, 100}) {
    for (const int32_t k : {0, 1, 2, 4}) {
      EXPECT_EQ(AutoPickEngine(m, k, false), BatchEngine::kAlgorithmA);
    }
  }
  // Short patterns with a large budget stay on Algorithm A: at (m=8, k=5)
  // the scheme's pieces are one or two symbols, and A answered about twice
  // as fast in BENCH_bidir.json.
  EXPECT_EQ(AutoPickEngine(8, 5, true), BatchEngine::kAlgorithmA);
  EXPECT_EQ(AutoPickEngine(6, 5, true), BatchEngine::kAlgorithmA);
  // The calibrated bidirectional regime must route there — (m=100, k=3) is
  // the BENCH_bidir.json win cell kAuto exists for, the walk wins the whole
  // grid from 24 bp on, and below that at k <= 1 (20-bp patterns at k = 0
  // and 1) and wherever m >= 2k + 2.
  EXPECT_EQ(AutoPickEngine(100, 3, true), BatchEngine::kBidirectional);
  EXPECT_EQ(AutoPickEngine(24, 0, true), BatchEngine::kBidirectional);
  EXPECT_EQ(AutoPickEngine(20, 0, true), BatchEngine::kBidirectional);
  EXPECT_EQ(AutoPickEngine(20, 1, true), BatchEngine::kBidirectional);
  EXPECT_EQ(AutoPickEngine(12, 5, true), BatchEngine::kBidirectional);
  // Whatever the thresholds, the resolved engine is one of the two Hamming
  // engines (never kAuto itself), negative placeholder budgets included.
  for (const size_t m : {1, 10, 24, 50, 100, 500}) {
    for (const int32_t k : {std::numeric_limits<int32_t>::min(), -1, 0, 1, 2,
                            3, 4, 5, 6, 7, 8}) {
      const BatchEngine pick = AutoPickEngine(m, k, true);
      EXPECT_TRUE(pick == BatchEngine::kAlgorithmA ||
                  pick == BatchEngine::kBidirectional);
    }
  }
}

// Text + Algorithm A searcher + paired bidirectional index over it, with a
// mixed query workload — the bidirectional analogue of MakeWorkload (which
// discards the text the BiFmIndex needs).
struct BidirWorkload {
  std::vector<DnaCode> text;
  KMismatchSearcher searcher;
  BiFmIndex bidir;
  std::vector<BatchQuery> queries;
};

BidirWorkload MakeBidirWorkload(size_t genome_size, size_t query_count,
                                uint64_t seed) {
  GenomeOptions genome_options;
  genome_options.length = genome_size;
  genome_options.repeat_fraction = 0.3;
  genome_options.seed = seed;
  auto genome = GenerateGenome(genome_options).value();
  auto searcher = KMismatchSearcher::Build(genome).value();
  auto bidir = BiFmIndex::Build(genome).value();
  Rng rng(seed + 1);
  std::vector<BatchQuery> queries;
  queries.reserve(query_count);
  for (size_t i = 0; i < query_count; ++i) {
    const int32_t k = static_cast<int32_t>(i % 4);
    const size_t len = 20 + rng.NextBounded(30);
    if (i % 3 == 0) {
      queries.push_back({RandomDna(len, &rng), k});
    } else {
      const size_t pos = rng.NextBounded(genome.size() - len);
      queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
    }
  }
  return {std::move(genome), std::move(searcher), std::move(bidir),
          std::move(queries)};
}

TEST(BatchSearcherTest, BidirectionalEngineMatchesAlgorithmA) {
  BidirWorkload workload = MakeBidirWorkload(15000, 48, 131);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  for (const int threads : {1, 4}) {
    BatchOptions options;
    options.num_threads = threads;
    options.engine = BatchEngine::kBidirectional;
    options.bidir_indexes = {&workload.bidir};
    BatchSearcher batch(workload.searcher, options);
    const BatchResult result = batch.Search(workload.queries);
    ASSERT_EQ(result.occurrences.size(), workload.queries.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.occurrences[i], expected[i])
          << "query " << i << " with " << threads << " threads";
    }
    EXPECT_GT(result.stats.extend_calls, 0u);
  }
}

TEST(BatchSearcherTest, AutoEngineMatchesAlgorithmAWithAndWithoutBidir) {
  // kAuto must be transparent: whichever engine each query resolves to,
  // the hits equal the serial Algorithm A results — with bidirectional
  // indexes attached (mixed routing) and without (pure degradation).
  BidirWorkload workload = MakeBidirWorkload(12000, 40, 137);
  const auto expected = SerialResults(workload.searcher, workload.queries);
  for (const bool with_bidir : {true, false}) {
    BatchOptions options;
    options.num_threads = 4;
    options.engine = BatchEngine::kAuto;
    if (with_bidir) options.bidir_indexes = {&workload.bidir};
    BatchSearcher batch(workload.searcher, options);
    const BatchResult result = batch.Search(workload.queries);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.occurrences[i], expected[i])
          << "query " << i << (with_bidir ? " with" : " without") << " bidir";
    }
  }
}

TEST(BatchSearcherTest, InterleavedWalksMatchSerialEnginesFieldByField) {
  // A worker keeps up to BidirWalkSet::kBatchWalks scheme walks in flight.
  // Short queries (Algorithm A under kAuto) mixed with long ones, repeats
  // included: per-query hits and the aggregate stats must equal the serial
  // engines' on 1, 2 and 8 threads, with the result cache off and on.
  BidirWorkload workload = MakeBidirWorkload(20000, 0, 151);
  Rng rng(152);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 90; ++i) {
    const int32_t k = static_cast<int32_t>(i % 5);
    const size_t len =
        i % 2 == 0 ? 8 + rng.NextBounded(16) : 24 + rng.NextBounded(80);
    if (i % 3 == 0) {
      queries.push_back({RandomDna(len, &rng), k});
    } else {
      const size_t pos = rng.NextBounded(workload.text.size() - len);
      queries.push_back(
          {SampleWithFlips(workload.text, pos, len, k, &rng), k});
    }
  }
  for (size_t i = 0; i < 20; ++i) {
    queries.push_back(queries[rng.NextBounded(queries.size())]);
  }
  const BidirectionalSearch bidir(&workload.bidir);
  for (const BatchEngine engine :
       {BatchEngine::kBidirectional, BatchEngine::kAuto}) {
    std::vector<std::vector<Occurrence>> expected;
    SearchStats expected_stats;
    for (const BatchQuery& query : queries) {
      const BatchEngine resolved =
          engine == BatchEngine::kAuto
              ? AutoPickEngine(query.pattern.size(), query.k, true)
              : engine;
      SearchStats stats;
      expected.push_back(
          resolved == BatchEngine::kBidirectional
              ? bidir.Search(query.pattern, query.k, &stats)
              : workload.searcher.Search(query.pattern, query.k, &stats));
      expected_stats += stats;
    }
    for (const int threads : {1, 2, 8}) {
      for (const bool cached : {false, true}) {
        BatchOptions options;
        options.num_threads = threads;
        options.engine = engine;
        options.bidir_indexes = {&workload.bidir};
        options.result_cache.enabled = cached;
        BatchSearcher batch(workload.searcher, options);
        // With the cache on, the second pass is served from it.
        for (int pass = 0; pass < (cached ? 2 : 1); ++pass) {
          const BatchResult result = batch.Search(queries);
          ASSERT_EQ(result.occurrences.size(), queries.size());
          for (size_t i = 0; i < queries.size(); ++i) {
            ASSERT_EQ(result.occurrences[i], expected[i])
                << BatchEngineName(engine) << ", " << threads
                << " threads, cache " << cached << ", query " << i;
          }
          EXPECT_EQ(result.stats, expected_stats)
              << BatchEngineName(engine) << ", " << threads
              << " threads, cache " << cached << ", pass " << pass;
        }
      }
    }
  }
}

TEST(BatchSearcherTest, EngineBankSupportsResolveAndRunWith) {
  BidirWorkload workload = MakeBidirWorkload(6000, 1, 139);
  const FmIndex* index = &workload.searcher.index();

  BatchOptions plain;
  EngineBank bank_without(index, plain);
  EXPECT_TRUE(bank_without.Supports(BatchEngine::kAlgorithmA));
  EXPECT_TRUE(bank_without.Supports(BatchEngine::kAuto));
  EXPECT_FALSE(bank_without.Supports(BatchEngine::kBidirectional));

  BatchOptions with_bidir;
  with_bidir.bidir_indexes = {&workload.bidir};
  EngineBank bank(index, with_bidir);
  EXPECT_TRUE(bank.Supports(BatchEngine::kBidirectional));

  // Resolve: identity for concrete engines, AutoPickEngine for kAuto.
  Rng rng(140);
  const BatchQuery long_k3{RandomDna(100, &rng), 3};
  EXPECT_EQ(bank.Resolve(BatchEngine::kSTree, long_k3), BatchEngine::kSTree);
  EXPECT_EQ(bank.Resolve(BatchEngine::kAuto, long_k3),
            AutoPickEngine(100, 3, true));
  EXPECT_EQ(bank_without.Resolve(BatchEngine::kAuto, long_k3),
            BatchEngine::kAlgorithmA);

  // RunWith: every Hamming engine answers the same query identically.
  const size_t pos = rng.NextBounded(workload.text.size() - 40);
  const BatchQuery query{SampleWithFlips(workload.text, pos, 40, 2, &rng), 2};
  SearchStats stats;
  const auto via_a = bank.RunWith(BatchEngine::kAlgorithmA, query, 0, &stats);
  EXPECT_EQ(bank.RunWith(BatchEngine::kSTree, query, 0, &stats), via_a);
  EXPECT_EQ(bank.RunWith(BatchEngine::kBidirectional, query, 0, &stats),
            via_a);
  EXPECT_EQ(bank.RunWith(BatchEngine::kAuto, query, 0, &stats), via_a);
}

TEST(BatchSearcherTest, AutoEngineResultCacheKeysByResolvedEngine) {
  // A kAuto pool with the result cache on: the second pass answers from
  // cache (keyed by the *resolved* engine byte) and must be byte-identical,
  // including the aggregate stats, which cached entries replay.
  BidirWorkload workload = MakeBidirWorkload(8000, 30, 149);
  BatchOptions options;
  options.num_threads = 4;
  options.engine = BatchEngine::kAuto;
  options.bidir_indexes = {&workload.bidir};
  options.result_cache.enabled = true;
  BatchSearcher batch(workload.searcher, options);
  const BatchResult cold = batch.Search(workload.queries);
  const BatchResult warm = batch.Search(workload.queries);
  ASSERT_EQ(cold.occurrences, warm.occurrences);
  EXPECT_EQ(cold.stats, warm.stats);
}

}  // namespace
}  // namespace bwtk
