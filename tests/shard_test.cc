// Sharded index subsystem: the plan's partition/ownership arithmetic, the
// exactness of sharded search against the monolithic index (the seam fuzz —
// reads planted to straddle every core boundary), and the manifest's
// save/load/corruption behavior. The stress case is a ThreadSanitizer
// target: many queries over many shards on many workers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bidir/bi_fm_index.h"
#include "bwt/fm_index.h"
#include "obs/metrics.h"
#include "search/batch_searcher.h"
#include "shard/shard_plan.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "simulate/genome_generator.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

std::vector<DnaCode> TestGenome(size_t length, uint64_t seed) {
  GenomeOptions options;
  options.length = length;
  options.repeat_fraction = 0.3;
  options.seed = seed;
  return GenerateGenome(options).value();
}

// ---------------------------------------------------------------- ShardPlan

TEST(ShardPlanTest, PartitionCoversTextExactly) {
  for (const size_t n : {9u, 100u, 101u, 4096u}) {
    for (const size_t shards : {1u, 2u, 3u, 4u, 7u}) {
      if (n < shards) continue;
      const auto plan = ShardPlan::Make(n, shards, 16).value();
      ASSERT_EQ(plan.num_shards(), shards);
      size_t expected_begin = 0;
      for (size_t s = 0; s < shards; ++s) {
        const ShardSlice& slice = plan.slice(s);
        EXPECT_EQ(slice.core_begin, expected_begin) << "n=" << n;
        EXPECT_GT(slice.core_end, slice.core_begin) << "empty core";
        EXPECT_EQ(slice.end, std::min(slice.core_end + 16, n));
        expected_begin = slice.core_end;
      }
      EXPECT_EQ(expected_begin, n) << "cores must partition [0, n)";
      EXPECT_EQ(plan.slice(shards - 1).end, n);
    }
  }
}

TEST(ShardPlanTest, RejectsDegenerateShapes) {
  EXPECT_FALSE(ShardPlan::Make(100, 0, 8).ok());
  EXPECT_FALSE(ShardPlan::Make(3, 4, 8).ok());
  EXPECT_EQ(ShardPlan::Make(3, 4, 8).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ShardPlan::Make(4, 4, 8).ok());
}

TEST(ShardPlanTest, CoordinateTranslationRoundTrips) {
  const auto plan = ShardPlan::Make(1000, 4, 32).value();
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const ShardSlice& slice = plan.slice(s);
    for (const size_t global : {slice.core_begin, slice.end - 1}) {
      const size_t local = plan.GlobalToLocal(s, global);
      EXPECT_EQ(plan.LocalToGlobal(s, local), global);
    }
  }
}

TEST(ShardPlanTest, OwnerInvariantExhaustive) {
  // For every position and every window length up to the overlap, the owner
  // returned by the binary search must equal the brute-force lowest shard
  // whose slice contains the window — and must actually contain it.
  const size_t n = 211;  // prime: cores of uneven sizes
  for (const size_t shards : {1u, 2u, 4u, 7u}) {
    for (const size_t overlap : {5u, 17u}) {
      const auto plan = ShardPlan::Make(n, shards, overlap).value();
      for (size_t pos = 0; pos < n; ++pos) {
        EXPECT_LE(plan.slice(plan.ShardOfPosition(pos)).core_begin, pos);
        EXPECT_LT(pos, plan.slice(plan.ShardOfPosition(pos)).core_end);
        for (size_t len = 0; len <= overlap; ++len) {
          const size_t window_end = std::min(pos + len, n);
          size_t brute = shards;  // sentinel: none
          for (size_t s = 0; s < shards; ++s) {
            if (plan.slice(s).core_begin <= pos &&
                plan.slice(s).end >= window_end) {
              brute = s;
              break;
            }
          }
          ASSERT_LT(brute, shards) << "window must have an owner";
          EXPECT_EQ(plan.OwnerShard(pos, len), brute)
              << "pos=" << pos << " len=" << len << " shards=" << shards
              << " overlap=" << overlap;
        }
      }
    }
  }
}

// ------------------------------------------------------------ exact search

// Queries that exercise every seam: for each core boundary, reads planted
// at offsets sweeping from `overlap + max_len` before it to `max_len` after
// it, plus random and planted reads everywhere else.
std::vector<BatchQuery> SeamWorkload(const std::vector<DnaCode>& genome,
                                     const ShardPlan& plan, int32_t max_k,
                                     uint64_t seed) {
  Rng rng(seed);
  const size_t max_len = 40;
  std::vector<BatchQuery> queries;
  for (size_t s = 0; s + 1 < plan.num_shards(); ++s) {
    const size_t boundary = plan.slice(s).core_end;
    const size_t from =
        boundary > plan.overlap() + max_len ? boundary - plan.overlap() - max_len
                                            : 0;
    const size_t to = std::min(boundary + max_len, genome.size() - max_len);
    for (size_t pos = from; pos <= to; pos += 1 + rng.NextBounded(5)) {
      const int32_t k = static_cast<int32_t>(rng.NextBounded(max_k + 1));
      const size_t len = 24 + rng.NextBounded(max_len - 24 + 1);
      queries.push_back(
          {SampleWithFlips(genome, pos, len, k, &rng), k});
    }
  }
  for (size_t i = 0; i < 30; ++i) {
    const int32_t k = static_cast<int32_t>(i % (max_k + 1));
    const size_t len = 24 + rng.NextBounded(16);
    if (i % 3 == 0) {
      queries.push_back({RandomDna(len, &rng), k});
    } else {
      const size_t pos = rng.NextBounded(genome.size() - len);
      queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
    }
  }
  return queries;
}

void ExpectShardedMatchesMonolithic(const std::vector<DnaCode>& genome,
                                    size_t num_shards, BatchEngine engine,
                                    int32_t max_k, uint64_t seed) {
  const auto mono_index = FmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = num_shards;
  shard_options.overlap = 40 + static_cast<size_t>(max_k);  // max_len + k
  const auto sharded =
      ShardedIndex::Build(genome, shard_options).value();
  const std::vector<BatchQuery> queries =
      SeamWorkload(genome, sharded.plan(), max_k, seed);

  BatchOptions options;
  options.num_threads = 4;
  options.engine = engine;
  BatchSearcher mono(&mono_index, options);
  ShardedBatchSearcher router(&sharded, options);

  const BatchResult expected = mono.Search(queries);
  const auto actual = router.Search(queries);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->occurrences.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual->occurrences[i], expected.occurrences[i])
        << "query " << i << " engine " << BatchEngineName(engine)
        << " shards " << num_shards;
  }
}

TEST(ShardedSearchTest, SeamFuzzAlgorithmA) {
  const auto genome = TestGenome(12000, 101);
  for (const size_t shards : {2u, 4u, 7u}) {
    ExpectShardedMatchesMonolithic(genome, shards, BatchEngine::kAlgorithmA,
                                   /*max_k=*/5, 7 * shards);
  }
}

TEST(ShardedSearchTest, SeamFuzzSTree) {
  const auto genome = TestGenome(12000, 103);
  for (const size_t shards : {2u, 4u, 7u}) {
    ExpectShardedMatchesMonolithic(genome, shards, BatchEngine::kSTree,
                                   /*max_k=*/5, 11 * shards);
  }
}

TEST(ShardedSearchTest, SeamFuzzKError) {
  // The Levenshtein walk's state space grows steeply with k; k <= 2 keeps
  // the fuzz fast while still exercising insertions/deletions across seams
  // (the ownership window is pattern length + k there).
  const auto genome = TestGenome(8000, 107);
  for (const size_t shards : {2u, 4u, 7u}) {
    ExpectShardedMatchesMonolithic(genome, shards, BatchEngine::kKError,
                                   /*max_k=*/2, 13 * shards);
  }
}

TEST(ShardedSearchTest, SeamDuplicatesAreCountedAndRemoved) {
  // An exact read planted right after a core boundary lies in the previous
  // shard's overlap AND the next shard's core: both find it, the ownership
  // rule keeps exactly one copy and counts the other.
  const auto genome = TestGenome(4000, 109);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.overlap = 48;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  const size_t boundary = sharded.plan().slice(0).core_end;
  const std::vector<BatchQuery> queries = {
      {std::vector<DnaCode>(genome.begin() + boundary,
                            genome.begin() + boundary + 32),
       0}};
  ShardedBatchSearcher router(&sharded, {.num_threads = 2});
  const auto result = router.Search(queries);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->seam_hits_deduped, 1u);
  // The planted position must appear exactly once, and the de-duplicated
  // list must be free of repeats altogether.
  const std::vector<Occurrence>& hits = result->occurrences[0];
  size_t found = 0;
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].position == boundary) ++found;
    if (i > 0) EXPECT_NE(hits[i], hits[i - 1]) << "duplicate survived";
  }
  EXPECT_EQ(found, 1u);
}

TEST(ShardedSearchTest, RejectsWindowLargerThanOverlap) {
  const auto genome = TestGenome(2000, 113);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.overlap = 16;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  ShardedBatchSearcher router(&sharded, {.num_threads = 1});
  // Pattern of 17 > overlap 16: must refuse, not silently drop seam hits.
  std::vector<BatchQuery> too_long = {
      {std::vector<DnaCode>(17, DnaCode{0}), 0}};
  const auto result = router.Search(too_long);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // kerror widens the window by k: 14 + 3 > 16 must also be rejected.
  BatchOptions kerror_options;
  kerror_options.engine = BatchEngine::kKError;
  ShardedBatchSearcher kerror_router(&sharded, kerror_options);
  std::vector<BatchQuery> widened = {
      {std::vector<DnaCode>(14, DnaCode{0}), 3}};
  const auto kerror_result = kerror_router.Search(widened);
  ASSERT_FALSE(kerror_result.ok());
  EXPECT_EQ(kerror_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedSearchTest, AsciiBatchCountsFailedQueries) {
  const auto genome = TestGenome(2000, 127);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.overlap = 32;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  ShardedBatchSearcher router(&sharded, {.num_threads = 2});
  std::string planted(genome.begin() + 100, genome.begin() + 120);
  for (char& c : planted) c = CodeToChar(static_cast<DnaCode>(c));
  const auto result = router.Search({planted, "not-dna"}, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failed_queries, 1u);
  EXPECT_FALSE(result->occurrences[0].empty());
  EXPECT_TRUE(result->occurrences[1].empty());
}

TEST(ShardedSearchTest, ExactShortcutByteIdenticalToFullFanout) {
  // k = 0 queries take the point lookup (one backward search + locate per
  // shard) instead of an engine run per shard. The hits must be
  // byte-identical to the monolithic engine's, including across seams.
  const auto genome = TestGenome(12000, 139);
  const auto mono_index = FmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.overlap = 48;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  // Exact seam-straddling reads plus random probes, all k = 0, with a few
  // k > 0 queries mixed in to check routing stays per-query.
  std::vector<BatchQuery> queries = SeamWorkload(genome, sharded.plan(),
                                                 /*max_k=*/0, 149);
  Rng rng(151);
  for (size_t i = 0; i < 10; ++i) {
    const size_t len = 24 + rng.NextBounded(8);
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back({SampleWithFlips(genome, pos, len, 2, &rng), 2});
  }

  uint64_t exact_queries = 0;
  for (const BatchQuery& query : queries) exact_queries += query.k == 0;

  BatchOptions options;
  options.num_threads = 2;
  BatchSearcher mono(&mono_index, options);
  ShardedBatchSearcher router(&sharded, options);
  const uint64_t lookups_before =
      obs::MetricsRegistry::Instance()
          .Snapshot()
          .counters[obs::kCounterShardExactShortcuts];
  const BatchResult expected = mono.Search(queries);
  const auto actual = router.Search(queries);
  ASSERT_TRUE(actual.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual->occurrences[i], expected.occurrences[i])
        << "query " << i << " k=" << queries[i].k;
  }
  // The seam-straddling reads are found by two shards each.
  EXPECT_GT(actual->seam_hits_deduped, 0u);
  if (BWTK_METRICS_ENABLED) {
    EXPECT_EQ(obs::MetricsRegistry::Instance()
                      .Snapshot()
                      .counters[obs::kCounterShardExactShortcuts] -
                  lookups_before,
              exact_queries);
  }
}

TEST(ShardedSearchTest, ResultCacheServesRepeatsBeforeFanout) {
  const auto genome = TestGenome(8000, 157);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.overlap = 48;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  Rng rng(163);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 20; ++i) {
    const int32_t k = static_cast<int32_t>(i % 3);
    const size_t len = 20 + rng.NextBounded(16);
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
  }

  BatchOptions options;
  options.num_threads = 2;
  options.result_cache.enabled = true;
  options.result_cache_instance =
      std::make_shared<ResultCache>(options.result_cache);
  ShardedBatchSearcher cached(&sharded, options);
  ShardedBatchSearcher uncached(&sharded, {.num_threads = 2});

  const auto expected = uncached.Search(queries);
  const auto cold = cached.Search(queries);
  const auto warm = cached.Search(queries);
  ASSERT_TRUE(expected.ok() && cold.ok() && warm.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(cold->occurrences[i], expected->occurrences[i]) << "query " << i;
    EXPECT_EQ(warm->occurrences[i], expected->occurrences[i]) << "query " << i;
  }
  // The warm pass was answered from the cache — including the stored seam
  // counts and engine stats, which must match the cold pass exactly.
  EXPECT_EQ(warm->seam_hits_deduped, cold->seam_hits_deduped);
  EXPECT_EQ(warm->stats, cold->stats);
  const ResultCache::CacheStats stats =
      options.result_cache_instance->Stats();
  EXPECT_GE(stats.hits, queries.size());
}

TEST(ShardedSearchTest, StressManyQueriesManyShards) {
  // ThreadSanitizer target: 7 shards × many queries on 8 workers, two
  // rounds through one pool.
  const auto genome = TestGenome(16000, 131);
  const auto mono_index = FmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 7;
  shard_options.overlap = 45;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();

  Rng rng(17);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 200; ++i) {
    const int32_t k = static_cast<int32_t>(i % 4);
    const size_t len = 20 + rng.NextBounded(20);
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
  }
  BatchSearcher mono(&mono_index, {.num_threads = 8});
  ShardedBatchSearcher router(&sharded, {.num_threads = 8});
  const BatchResult expected = mono.Search(queries);
  for (int round = 0; round < 2; ++round) {
    const auto result = router.Search(queries);
    ASSERT_TRUE(result.ok());
    size_t mismatched = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (result->occurrences[i] != expected.occurrences[i]) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------- save/load

TEST(ShardedIndexTest, SaveLoadRoundTrip) {
  const auto genome = TestGenome(6000, 137);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.overlap = 40;
  shard_options.index_options.prefix_table_q = 4;
  const auto built = ShardedIndex::Build(genome, shard_options).value();
  const std::string prefix = ::testing::TempDir() + "/bwtk_shard_roundtrip";
  ASSERT_TRUE(built.Save(prefix).ok());

  const auto loaded_result = ShardedIndex::Load(prefix);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  const ShardedIndex& loaded = loaded_result.value();
  EXPECT_EQ(loaded.plan(), built.plan());
  EXPECT_EQ(loaded.num_shards(), 3u);
  // The prefix table must survive the trip (format v2 payload per shard).
  EXPECT_EQ(loaded.shard(0).prefix_table_q(), 4u);

  // Loaded and built groups must answer identically.
  Rng rng(23);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < 20; ++i) {
    const size_t len = 20 + rng.NextBounded(16);
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back(
        {SampleWithFlips(genome, pos, len, 2, &rng), 2});
  }
  ShardedBatchSearcher built_router(&built, {.num_threads = 2});
  ShardedBatchSearcher loaded_router(&loaded, {.num_threads = 2});
  const auto from_built = built_router.Search(queries);
  const auto from_loaded = loaded_router.Search(queries);
  ASSERT_TRUE(from_built.ok());
  ASSERT_TRUE(from_loaded.ok());
  EXPECT_EQ(from_built->occurrences, from_loaded->occurrences);
}

TEST(ShardedIndexTest, LoadRejectsMissingAndCorruptFiles) {
  const auto genome = TestGenome(3000, 139);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.overlap = 32;
  const auto built = ShardedIndex::Build(genome, shard_options).value();
  const std::string prefix = ::testing::TempDir() + "/bwtk_shard_corrupt";
  ASSERT_TRUE(built.Save(prefix).ok());

  // Missing manifest.
  const auto missing = ShardedIndex::Load(prefix + "_nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  // Bad magic: stamp garbage over the first word.
  {
    std::fstream f(ShardManifestPath(prefix),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("XXXX", 4);
  }
  const auto bad_magic = ShardedIndex::Load(prefix);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kCorruption);

  // Restore, then truncate the manifest mid-slice-table.
  ASSERT_TRUE(built.Save(prefix).ok());
  {
    std::ifstream in(ShardManifestPath(prefix), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(ShardManifestPath(prefix),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  const auto truncated = ShardedIndex::Load(prefix);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);

  // Restore, then remove one shard file.
  ASSERT_TRUE(built.Save(prefix).ok());
  ASSERT_EQ(std::remove(ShardFilePath(prefix, 1).c_str()), 0);
  const auto no_shard = ShardedIndex::Load(prefix);
  ASSERT_FALSE(no_shard.ok());
  EXPECT_EQ(no_shard.status().code(), StatusCode::kIoError);

  // Restore, then truncate a shard's index file: the FM-index loader must
  // surface Corruption through the shard loader.
  ASSERT_TRUE(built.Save(prefix).ok());
  {
    std::ifstream in(ShardFilePath(prefix, 0), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(ShardFilePath(prefix, 0),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 16));
  }
  const auto bad_shard = ShardedIndex::Load(prefix);
  ASSERT_FALSE(bad_shard.ok());
  EXPECT_EQ(bad_shard.status().code(), StatusCode::kCorruption);
}

TEST(ShardedIndexTest, ParallelBuildMatchesSerialBuild) {
  const auto genome = TestGenome(6000, 149);
  ShardedIndexOptions serial_options;
  serial_options.num_shards = 4;
  serial_options.overlap = 40;
  serial_options.num_build_threads = 1;
  ShardedIndexOptions parallel_options = serial_options;
  parallel_options.num_build_threads = 4;
  const auto serial = ShardedIndex::Build(genome, serial_options).value();
  const auto parallel = ShardedIndex::Build(genome, parallel_options).value();
  ASSERT_EQ(serial.plan(), parallel.plan());
  for (size_t s = 0; s < serial.num_shards(); ++s) {
    EXPECT_EQ(serial.shard(s).text_size(), parallel.shard(s).text_size());
  }
  std::vector<BatchQuery> queries = {
      {std::vector<DnaCode>(genome.begin() + 50, genome.begin() + 80), 1}};
  ShardedBatchSearcher serial_router(&serial, {.num_threads = 1});
  ShardedBatchSearcher parallel_router(&parallel, {.num_threads = 1});
  EXPECT_EQ(serial_router.Search(queries)->occurrences,
            parallel_router.Search(queries)->occurrences);
}

// --------------------------------------------------- bidirectional sharding

// Per-shard bidirectional indexes, each over its shard's slice of the
// genome (core + overlap), in shard order — the layout
// BatchOptions::bidir_indexes requires for a ShardedBatchSearcher.
std::vector<BiFmIndex> BuildShardBidirIndexes(
    const std::vector<DnaCode>& genome, const ShardedIndex& sharded) {
  std::vector<BiFmIndex> out;
  out.reserve(sharded.num_shards());
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const ShardSlice& slice = sharded.plan().slice(s);
    const std::vector<DnaCode> text(genome.begin() + slice.core_begin,
                                    genome.begin() + slice.end);
    out.push_back(BiFmIndex::Build(text).value());
  }
  return out;
}

void ExpectShardedBidirMatchesMonolithic(BatchEngine engine, uint64_t seed) {
  const auto genome = TestGenome(10000, seed);
  const auto mono_index = FmIndex::Build(genome).value();
  const auto mono_bidir = BiFmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.overlap = 45;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  const std::vector<BiFmIndex> shard_bidirs =
      BuildShardBidirIndexes(genome, sharded);
  const std::vector<BatchQuery> queries =
      SeamWorkload(genome, sharded.plan(), /*max_k=*/4, seed + 1);

  BatchOptions mono_options;
  mono_options.num_threads = 4;
  mono_options.engine = engine;
  mono_options.bidir_indexes = {&mono_bidir};
  BatchOptions sharded_options = mono_options;
  sharded_options.bidir_indexes.clear();
  for (const BiFmIndex& bidir : shard_bidirs) {
    sharded_options.bidir_indexes.push_back(&bidir);
  }

  BatchSearcher mono(&mono_index, mono_options);
  ShardedBatchSearcher router(&sharded, sharded_options);
  const BatchResult expected = mono.Search(queries);
  const auto actual = router.Search(queries);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->occurrences.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual->occurrences[i], expected.occurrences[i])
        << "query " << i << " engine " << BatchEngineName(engine);
  }
}

TEST(ShardedSearchTest, SeamFuzzBidirectional) {
  ExpectShardedBidirMatchesMonolithic(BatchEngine::kBidirectional, 211);
}

TEST(ShardedSearchTest, SeamFuzzAutoEngine) {
  // kAuto routes per query; seam handling must be exact whichever engine
  // each query resolves to (the ownership window is the pattern length for
  // both Hamming engines).
  ExpectShardedBidirMatchesMonolithic(BatchEngine::kAuto, 223);
}

}  // namespace
}  // namespace bwtk
