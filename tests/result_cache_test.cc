// Result cache (search/result_cache.h): LRU mechanics under a byte
// budget, version-fingerprint invalidation across index rebuilds, the
// cache-on/cache-off byte-identity contract through BatchSearcher, and one
// cache shared by a pool and a Session over the same index.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bwt/fm_index.h"
#include "search/batch_searcher.h"
#include "search/result_cache.h"
#include "serve/session.h"
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

std::vector<BatchQuery> MakeQueries(const std::vector<DnaCode>& genome,
                                    size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    const int32_t k = static_cast<int32_t>(i % 4);
    const size_t len = 16 + rng.NextBounded(16);
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
  }
  return queries;
}

TEST(ResultCacheTest, LookupInsertAndLruEviction) {
  ResultCacheOptions options;
  options.enabled = true;
  // Room for roughly three small entries; forces eviction on the fourth.
  options.capacity_bytes = 1050;
  ResultCache cache(options);

  auto pattern = [](char c) { return std::vector<DnaCode>(8, DnaCode(c)); };
  ResultCache::Entry entry;
  entry.hits = {{1, 0}, {2, 1}};
  entry.stats.extend_calls = 7;

  cache.Insert(0, 1, 42, pattern(0), entry);
  cache.Insert(0, 1, 42, pattern(1), entry);
  cache.Insert(0, 1, 42, pattern(2), entry);
  ASSERT_EQ(cache.Stats().entries, 3u);

  // Touch pattern(0): it becomes most-recent, pattern(1) is now LRU.
  ResultCache::Entry out;
  ASSERT_TRUE(cache.Lookup(0, 1, 42, pattern(0), &out));
  EXPECT_EQ(out.hits, entry.hits);
  EXPECT_EQ(out.stats, entry.stats);

  cache.Insert(0, 1, 42, pattern(3), entry);  // evicts pattern(1)
  EXPECT_TRUE(cache.Lookup(0, 1, 42, pattern(0), &out));
  EXPECT_FALSE(cache.Lookup(0, 1, 42, pattern(1), &out));
  EXPECT_TRUE(cache.Lookup(0, 1, 42, pattern(2), &out));
  EXPECT_TRUE(cache.Lookup(0, 1, 42, pattern(3), &out));
  const ResultCache::CacheStats stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, options.capacity_bytes);

  // The key is (engine, k, version, pattern): any one differing is a miss.
  EXPECT_FALSE(cache.Lookup(1, 1, 42, pattern(0), &out));
  EXPECT_FALSE(cache.Lookup(0, 2, 42, pattern(0), &out));
  EXPECT_FALSE(cache.Lookup(0, 1, 43, pattern(0), &out));

  // An entry larger than the whole budget is dropped, not cached.
  ResultCache::Entry huge;
  huge.hits.assign(1000, Occurrence{0, 0});
  cache.Insert(0, 1, 42, pattern(4), huge);
  EXPECT_FALSE(cache.Lookup(0, 1, 42, pattern(4), &out));

  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

TEST(ResultCacheTest, FmIndexVersionTracksContentAndOptions) {
  const auto genome_a = TestGenome(4000, 11);
  auto genome_b = genome_a;
  genome_b[2000] = DnaCode((genome_b[2000] + 1) % kDnaAlphabetSize);

  const auto index_a1 = FmIndex::Build(genome_a).value();
  const auto index_a2 = FmIndex::Build(genome_a).value();
  const auto index_b = FmIndex::Build(genome_b).value();
  // Same text, same options: identical fingerprint (the cache survives an
  // in-place rebuild of the same data).
  EXPECT_EQ(FmIndexVersion(index_a1), FmIndexVersion(index_a2));
  // One character flipped: the fingerprint must move.
  EXPECT_NE(FmIndexVersion(index_a1), FmIndexVersion(index_b));
  // Same text, different structural options: also a different version.
  FmIndex::Options opts;
  opts.sa_sample_rate = 16;
  const auto index_a3 = FmIndex::Build(genome_a, opts).value();
  EXPECT_NE(FmIndexVersion(index_a1), FmIndexVersion(index_a3));
}

TEST(ResultCacheTest, BatchSearcherCacheOnOffByteIdentity) {
  const auto genome = TestGenome(16000, 13);
  const auto index = FmIndex::Build(genome).value();
  std::vector<BatchQuery> queries = MakeQueries(genome, 24, 17);
  // Duplicate-heavy stream: append the same queries again, shuffled order
  // is unnecessary — the second half must be served from the cache.
  queries.insert(queries.end(), queries.begin(), queries.end());

  BatchOptions plain;
  plain.num_threads = 4;
  BatchSearcher uncached(&index, plain);
  const BatchResult expected = uncached.Search(queries);

  BatchOptions cached_options;
  cached_options.num_threads = 4;
  cached_options.result_cache.enabled = true;
  cached_options.result_cache_instance =
      std::make_shared<ResultCache>(cached_options.result_cache);
  BatchSearcher cached(&index, cached_options);
  const BatchResult warm1 = cached.Search(queries);
  const BatchResult warm2 = cached.Search(queries);  // fully warm pass

  ASSERT_EQ(warm1.occurrences.size(), expected.occurrences.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(warm1.occurrences[i], expected.occurrences[i]) << "query " << i;
    EXPECT_EQ(warm2.occurrences[i], expected.occurrences[i]) << "query " << i;
  }
  // Cached entries carry the original stats, so the aggregate is identical
  // whether the batch ran cold or fully warm.
  EXPECT_EQ(warm1.stats, expected.stats);
  EXPECT_EQ(warm2.stats, expected.stats);
  const ResultCache::CacheStats stats =
      cached_options.result_cache_instance->Stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(ResultCacheTest, RebuildInvalidatesByVersionNotByFlush) {
  // One shared cache across two searchers over *different* texts: entries
  // written against the first index must never serve the second (the
  // version key diverges), with no explicit invalidation call.
  const auto genome_a = TestGenome(8000, 19);
  const auto genome_b = TestGenome(8000, 23);
  const auto index_a = FmIndex::Build(genome_a).value();
  const auto index_b = FmIndex::Build(genome_b).value();
  const std::vector<BatchQuery> queries = MakeQueries(genome_a, 16, 29);

  auto shared = std::make_shared<ResultCache>(
      ResultCacheOptions{.enabled = true, .capacity_bytes = size_t{8} << 20});
  BatchOptions options;
  options.num_threads = 2;
  options.result_cache.enabled = true;
  options.result_cache_instance = shared;

  BatchSearcher searcher_a(&index_a, options);
  const BatchResult from_a = searcher_a.Search(queries);
  const uint64_t hits_after_a = shared->Stats().hits;

  // "Rebuild": a new searcher over new text, same cache instance.
  BatchSearcher searcher_b(&index_b, options);
  const BatchResult from_b = searcher_b.Search(queries);
  // Every query missed (different version) and re-executed against B.
  EXPECT_EQ(shared->Stats().hits, hits_after_a);
  BatchOptions plain;
  plain.num_threads = 2;
  BatchSearcher uncached_b(&index_b, plain);
  const BatchResult expected_b = uncached_b.Search(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(from_b.occurrences[i], expected_b.occurrences[i])
        << "query " << i;
  }
  // And the A entries still serve A afterwards (no cross-flush).
  const BatchResult again_a = searcher_a.Search(queries);
  EXPECT_GT(shared->Stats().hits, hits_after_a);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(again_a.occurrences[i], from_a.occurrences[i]) << "query " << i;
  }
}

// Submits `queries` all at once to a Session over `index` that shares
// `options`' cache with the pool that produced `expected`: every ticket must
// be a cache hit carrying the pool's hits.
template <typename Index>
void ExpectSessionServedFromSharedCache(const Index* index,
                                        const BatchOptions& options,
                                        const std::vector<BatchQuery>& queries,
                                        const BatchResult& expected) {
  serve::SessionOptions session_options;
  session_options.num_threads = 2;
  session_options.batch = options;
  serve::Session session(index, session_options);
  std::vector<serve::Ticket> tickets;
  for (const BatchQuery& query : queries) {
    tickets.push_back(session.Submit(query).value());
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const auto result = session.Wait(tickets[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->cache_served) << "query " << i;
    EXPECT_EQ(result->hits, expected.occurrences[i]) << "query " << i;
  }
}

TEST(ResultCacheTest, PoolAndSessionShareOneCacheMonolithic) {
  const auto genome = TestGenome(8000, 31);
  const auto index = FmIndex::Build(genome).value();
  const std::vector<BatchQuery> queries = MakeQueries(genome, 16, 37);
  BatchOptions options;
  options.num_threads = 2;
  options.result_cache_instance =
      std::make_shared<ResultCache>(ResultCacheOptions{.enabled = true});
  BatchSearcher pool(&index, options);
  const BatchResult expected = pool.Search(queries);
  ExpectSessionServedFromSharedCache(&index, options, queries, expected);
  EXPECT_EQ(options.result_cache_instance->Stats().hits, queries.size());
}

TEST(ResultCacheTest, PoolAndSessionShareOneCacheSharded) {
  const auto genome = TestGenome(8000, 41);
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.overlap = 48;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();
  const std::vector<BatchQuery> queries = MakeQueries(genome, 16, 43);
  BatchOptions options;
  options.num_threads = 2;
  options.result_cache_instance =
      std::make_shared<ResultCache>(ResultCacheOptions{.enabled = true});
  ShardedBatchSearcher pool(&sharded, options);
  const auto expected = pool.Search(queries);
  ASSERT_TRUE(expected.ok());
  ExpectSessionServedFromSharedCache(&sharded, options, queries, *expected);
  EXPECT_EQ(options.result_cache_instance->Stats().hits, queries.size());
}

}  // namespace
}  // namespace bwtk
