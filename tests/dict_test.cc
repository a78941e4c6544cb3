// The dictionary subsystem: PatternSetTrie construction edge cases, the
// joint trie ∩ FM-descent's byte-identity to the per-pattern naive-scanner
// oracle (randomized, monolithic and sharded, prefix table on and off),
// kaori-style best-hit/ambiguity semantics, the demux helper, the
// kDictionary batch/serve wiring, and the v1-index prefix-table upgrade
// path (FmIndex::RebuildPrefixTable).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/naive_search.h"
#include "bwt/fm_index.h"
#include "dict/demux.h"
#include "dict/dictionary_searcher.h"
#include "dict/pattern_set_trie.h"
#include "search/batch_searcher.h"
#include "serve/session.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "simulate/genome_generator.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

std::vector<DnaCode> TestGenome(size_t length, uint64_t seed) {
  GenomeOptions options;
  options.length = length;
  options.repeat_fraction = 0.3;
  options.seed = seed;
  return GenerateGenome(options).value();
}

// Half planted (with up to `k` flips, so hits exist), half random.
std::vector<std::vector<DnaCode>> MakePatternSet(
    const std::vector<DnaCode>& genome, size_t count, size_t length,
    int32_t k, Rng* rng) {
  std::vector<std::vector<DnaCode>> patterns;
  patterns.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      const size_t pos = rng->NextBounded(genome.size() - length);
      patterns.push_back(SampleWithFlips(genome, pos, length, k, rng));
    } else {
      patterns.push_back(RandomDna(length, rng));
    }
  }
  return patterns;
}

// --- PatternSetTrie construction ----------------------------------------

TEST(PatternSetTrieTest, EmptySet) {
  const auto trie =
      PatternSetTrie::Build(std::vector<std::vector<DnaCode>>{}).value();
  EXPECT_EQ(trie.length(), 0u);
  EXPECT_EQ(trie.num_patterns(), 0u);
  EXPECT_EQ(trie.node_count(), 1u);  // just the root
  for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
    EXPECT_EQ(trie.Child(trie.root(), c), -1);
  }
}

TEST(PatternSetTrieTest, SinglePattern) {
  const auto trie = PatternSetTrie::Build({Codes("acgt")}).value();
  EXPECT_EQ(trie.length(), 4u);
  EXPECT_EQ(trie.num_patterns(), 1u);
  // root, "a", "ac", "acg"; the 't' slot of "acg" holds the pattern id.
  EXPECT_EQ(trie.node_count(), 4u);
  int32_t node = trie.root();
  for (const DnaCode c : Codes("acg")) {
    node = trie.Child(node, c);
    ASSERT_GE(node, 0);
  }
  // At the last depth the slot holds the pattern id.
  EXPECT_EQ(trie.Child(node, CharToCode('t')), 0);
  EXPECT_EQ(trie.canonical_of(0), 0);
}

TEST(PatternSetTrieTest, SharedPrefixesShareNodes) {
  const auto trie =
      PatternSetTrie::Build({Codes("aaaa"), Codes("aaac"), Codes("aagt")})
          .value();
  // root, "a", "aa", "aaa", "aag": prefixes shared, leaves are slots.
  EXPECT_EQ(trie.node_count(), 5u);
}

TEST(PatternSetTrieTest, DuplicatesRejectedByDefault) {
  const auto trie =
      PatternSetTrie::Build({Codes("acgt"), Codes("tttt"), Codes("acgt")});
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kInvalidArgument);
  // The error names both colliding indices.
  EXPECT_NE(trie.status().message().find("pattern 2"), std::string::npos)
      << trie.status().message();
  EXPECT_NE(trie.status().message().find("pattern 0"), std::string::npos)
      << trie.status().message();
}

TEST(PatternSetTrieTest, DuplicatesAllowedMapToCanonical) {
  const auto trie =
      PatternSetTrie::Build({Codes("acgt"), Codes("tttt"), Codes("acgt")},
                            {.allow_duplicates = true})
          .value();
  EXPECT_EQ(trie.num_patterns(), 3u);
  EXPECT_EQ(trie.canonical_of(0), 0);
  EXPECT_EQ(trie.canonical_of(1), 1);
  EXPECT_EQ(trie.canonical_of(2), 0);
}

TEST(PatternSetTrieTest, UnequalLengthsRejectedWithClearError) {
  const auto trie = PatternSetTrie::Build({Codes("acgtacgt"), Codes("acg")});
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trie.status().message().find("pattern 1"), std::string::npos);
  EXPECT_NE(trie.status().message().find("length 3"), std::string::npos)
      << trie.status().message();
  EXPECT_NE(trie.status().message().find("length 8"), std::string::npos)
      << trie.status().message();
}

TEST(PatternSetTrieTest, EmptyPatternRejected) {
  const auto trie = PatternSetTrie::Build({std::vector<DnaCode>{}});
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternSetTrieTest, AmbiguousBaseRejectedInAscii) {
  const auto trie = PatternSetTrie::Build(
      std::vector<std::string>{"acgtacgt", "acgnacgt"});
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kInvalidArgument);
  // Names the pattern and the offending character.
  EXPECT_NE(trie.status().message().find("pattern 1"), std::string::npos)
      << trie.status().message();
  EXPECT_NE(trie.status().message().find("'n'"), std::string::npos)
      << trie.status().message();
}

TEST(PatternSetTrieTest, NonDnaCodeRejected) {
  std::vector<DnaCode> bad = Codes("acgt");
  bad[2] = 4;  // e.g. a wildcard code leaking in
  const auto trie = PatternSetTrie::Build({bad});
  ASSERT_FALSE(trie.ok());
  EXPECT_EQ(trie.status().code(), StatusCode::kInvalidArgument);
}

TEST(PatternSetTrieTest, AsciiOverloadBuilds) {
  const auto trie = PatternSetTrie::Build(
      std::vector<std::string>{"ACGT", "tttt"}).value();
  EXPECT_EQ(trie.num_patterns(), 2u);
  EXPECT_EQ(trie.pattern(0), Codes("acgt"));
  EXPECT_EQ(trie.pattern(1), Codes("tttt"));
}

// --- SearchAll vs the per-pattern naive oracle --------------------------

void CrossValidate(size_t pattern_count, size_t length, int32_t k,
                   uint32_t prefix_q, uint64_t seed) {
  const auto genome = TestGenome(6000, seed);
  FmIndex::Options index_options;
  index_options.prefix_table_q = prefix_q;
  const auto index = FmIndex::Build(genome, index_options).value();
  Rng rng(seed + 1);
  const auto patterns = MakePatternSet(genome, pattern_count, length, k, &rng);
  const auto trie =
      PatternSetTrie::Build(patterns, {.allow_duplicates = true}).value();
  const DictionarySearcher searcher(&index);
  const auto all = searcher.SearchAll(trie, k);
  ASSERT_EQ(all.size(), patterns.size());
  const NaiveSearch oracle(&genome);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(all[i], oracle.Search(patterns[i], k))
        << "pattern " << i << " count=" << pattern_count << " k=" << k
        << " q=" << prefix_q;
  }
}

TEST(DictionarySearcherTest, MatchesNaiveOracleAcrossSetSizesAndK) {
  uint64_t seed = 1000;
  for (const size_t count : {1u, 16u, 256u}) {
    for (const int32_t k : {0, 1, 2}) {
      CrossValidate(count, 20, k, /*prefix_q=*/0, ++seed);
    }
  }
}

TEST(DictionarySearcherTest, MatchesNaiveOracleWithPrefixTableSeeding) {
  uint64_t seed = 2000;
  for (const size_t count : {1u, 16u, 256u}) {
    for (const int32_t k : {0, 1, 2}) {
      CrossValidate(count, 20, k, /*prefix_q=*/6, ++seed);
    }
  }
}

TEST(DictionarySearcherTest, PatternLengthEqualToQCompletesAtSeed) {
  // m == q: the depth-q trie slot already holds pattern ids and every
  // variant hit is a completed path — the seeding-only code path.
  uint64_t seed = 3000;
  for (const int32_t k : {0, 1, 2}) {
    CrossValidate(64, 6, k, /*prefix_q=*/6, ++seed);
  }
}

TEST(DictionarySearcherTest, PrefixTableOnOffIdentity) {
  const auto genome = TestGenome(5000, 41);
  FmIndex::Options index_options;
  index_options.prefix_table_q = 6;
  const auto index = FmIndex::Build(genome, index_options).value();
  // The same text without a table: the engines seed exactly when the index
  // carries one, so this side walks every level.
  const auto table_less = FmIndex::Build(genome).value();
  Rng rng(42);
  const auto patterns = MakePatternSet(genome, 64, 16, 2, &rng);
  const auto trie =
      PatternSetTrie::Build(patterns, {.allow_duplicates = true}).value();
  const DictionarySearcher seeded(&index);
  const DictionarySearcher stepped(&table_less);
  for (const int32_t k : {0, 1, 2}) {
    EXPECT_EQ(seeded.SearchAll(trie, k), stepped.SearchAll(trie, k))
        << "k=" << k;
  }
}

TEST(DictionarySearcherTest, EmptyTrieAndDegenerateInputs) {
  const auto genome = TestGenome(500, 47);
  const auto index = FmIndex::Build(genome).value();
  const DictionarySearcher searcher(&index);
  const auto empty = PatternSetTrie::Build(
      std::vector<std::vector<DnaCode>>{}).value();
  EXPECT_TRUE(searcher.SearchAll(empty, 2).empty());
  EXPECT_EQ(searcher.SearchBest(empty, 2).pattern, -1);
  // Pattern longer than the text: empty everywhere, no crash.
  const auto longer =
      PatternSetTrie::Build({std::vector<DnaCode>(501, DnaCode{0})}).value();
  const auto all = searcher.SearchAll(longer, 2);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].empty());
  // Negative budget (the decode-failed placeholder) searches nothing.
  const auto trie = PatternSetTrie::Build({Codes("acgt")}).value();
  const auto none = searcher.SearchAll(trie, -1);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].empty());
}

TEST(DictionarySearcherTest, DuplicatePatternsGetCanonicalResults) {
  const auto genome = TestGenome(3000, 53);
  const auto index = FmIndex::Build(genome).value();
  Rng rng(54);
  const auto planted = SampleWithFlips(genome, 100, 12, 1, &rng);
  const auto trie = PatternSetTrie::Build(
      {planted, RandomDna(12, &rng), planted},
      {.allow_duplicates = true}).value();
  const DictionarySearcher searcher(&index);
  const auto all = searcher.SearchAll(trie, 2);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], all[2]);
  EXPECT_FALSE(all[0].empty());
}

// --- SearchBest (kaori capping + ambiguity) -----------------------------

TEST(DictionarySearcherTest, SearchBestMatchesBruteForce) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    const auto genome = TestGenome(800, 600 + trial);
    const auto index = FmIndex::Build(genome).value();
    const int32_t k = trial % 3;
    auto patterns = MakePatternSet(genome, 8, 10, k, &rng);
    const auto trie =
        PatternSetTrie::Build(patterns, {.allow_duplicates = true}).value();
    const DictionarySearcher searcher(&index);
    const DictionaryBestHit best = searcher.SearchBest(trie, k);

    // Brute force: per-canonical-pattern oracle minima.
    const NaiveSearch oracle(&genome);
    int32_t best_mm = k + 1;
    std::set<int32_t> winners;
    std::vector<std::vector<Occurrence>> hits(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (trie.canonical_of(static_cast<int32_t>(i)) !=
          static_cast<int32_t>(i)) {
        continue;  // duplicates can never be reported — leaves hold
                   // canonical ids
      }
      hits[i] = oracle.Search(patterns[i], k);
      for (const Occurrence& o : hits[i]) {
        if (o.mismatches < best_mm) {
          best_mm = o.mismatches;
          winners.clear();
        }
        if (o.mismatches == best_mm) winners.insert(static_cast<int32_t>(i));
      }
    }
    if (winners.empty()) {
      EXPECT_EQ(best.pattern, -1) << "trial " << trial;
      continue;
    }
    ASSERT_GE(best.pattern, 0) << "trial " << trial;
    EXPECT_EQ(best.mismatches, best_mm) << "trial " << trial;
    EXPECT_TRUE(winners.count(best.pattern)) << "trial " << trial;
    EXPECT_EQ(best.ambiguous, winners.size() > 1) << "trial " << trial;
    // The reported position is the smallest best-count position of the
    // reported winner.
    size_t min_pos = static_cast<size_t>(-1);
    for (const Occurrence& o : hits[static_cast<size_t>(best.pattern)]) {
      if (o.mismatches == best_mm) min_pos = std::min(min_pos, o.position);
    }
    EXPECT_EQ(best.position, min_pos) << "trial " << trial;
  }
}

// --- Demux ---------------------------------------------------------------

TEST(DemuxTest, AssignsAmbiguousAndUnassignedOutcomes) {
  const auto barcodes = PatternSetTrie::Build(
      std::vector<std::string>{"aaaacccc", "ggggtttt"}).value();
  const std::vector<std::vector<DnaCode>> reads = {
      Codes("tgtgtgtgaaaaccccgtgtgtgt"),  // barcode 0 exact at offset 8
      Codes("tgtgtgtggggattttgtgtgtgt"),  // barcode 1 with one flip
      Codes("acacacacacacacacacacacac"),  // neither within 1 mismatch
      Codes("aaaaccccggggggtttt"),        // both exact: ambiguous
      Codes("aaaa"),                      // shorter than the barcode length
  };
  const auto result = DemuxReads(barcodes, reads, {.max_mismatches = 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 5u);
  EXPECT_EQ((*result)[0].outcome, DemuxAssignment::Outcome::kAssigned);
  EXPECT_EQ((*result)[0].barcode, 0);
  EXPECT_EQ((*result)[0].mismatches, 0);
  EXPECT_EQ((*result)[0].position, 8u);
  EXPECT_EQ((*result)[1].outcome, DemuxAssignment::Outcome::kAssigned);
  EXPECT_EQ((*result)[1].barcode, 1);
  EXPECT_EQ((*result)[1].mismatches, 1);
  EXPECT_EQ((*result)[2].outcome, DemuxAssignment::Outcome::kUnassigned);
  EXPECT_EQ((*result)[2].barcode, -1);
  EXPECT_EQ((*result)[3].outcome, DemuxAssignment::Outcome::kAmbiguous);
  EXPECT_EQ((*result)[3].mismatches, 0);
  EXPECT_EQ((*result)[4].outcome, DemuxAssignment::Outcome::kUnassigned);
}

TEST(DemuxTest, RejectsNegativeBudget) {
  const auto barcodes =
      PatternSetTrie::Build(std::vector<std::string>{"acgt"}).value();
  const auto result = DemuxReads(barcodes, {Codes("acgtacgt")},
                                 {.max_mismatches = -1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- BatchEngine::kDictionary -------------------------------------------

TEST(DictBatchTest, GroupedBatchMatchesOracle) {
  const auto genome = TestGenome(6000, 81);
  const auto index = FmIndex::Build(genome).value();
  const NaiveSearch oracle(&genome);
  Rng rng(82);
  // Mixed lengths and budgets force multiple trie groups; repeated patterns
  // exercise in-group deduplication; an empty pattern and a k < 0
  // placeholder must yield empty slots like the per-query engines.
  std::vector<BatchQuery> queries;
  for (int i = 0; i < 40; ++i) {
    const size_t len = (i % 2 == 0) ? 14 : 22;
    const int32_t k = i % 3;
    const size_t pos = rng.NextBounded(genome.size() - len);
    queries.push_back({SampleWithFlips(genome, pos, len, k, &rng), k});
  }
  queries.push_back(queries[0]);                    // duplicate
  queries.push_back({std::vector<DnaCode>{}, 2});   // empty pattern
  queries.push_back({Codes("acgtacgtacgt"), -1});   // decode-failed marker
  BatchOptions options;
  options.num_threads = 3;
  options.engine = BatchEngine::kDictionary;
  BatchSearcher batch(&index, options);
  const BatchResult result = batch.Search(queries);
  ASSERT_EQ(result.occurrences.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].k < 0 || queries[i].pattern.empty()) {
      EXPECT_TRUE(result.occurrences[i].empty()) << "query " << i;
      continue;
    }
    EXPECT_EQ(result.occurrences[i],
              oracle.Search(queries[i].pattern, queries[i].k))
        << "query " << i;
  }
}

TEST(DictBatchTest, AsciiBatchDecodesAndCountsFailures) {
  const auto genome = TestGenome(2000, 91);
  const auto index = FmIndex::Build(genome).value();
  std::string planted(20, 'a');
  for (size_t i = 0; i < planted.size(); ++i) {
    planted[i] = CodeToChar(genome[300 + i]);
  }
  BatchOptions options;
  options.num_threads = 2;
  options.engine = BatchEngine::kDictionary;
  BatchSearcher batch(&index, options);
  const auto result = batch.Search({planted, "acgtnacgt"}, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failed_queries, 1u);
  EXPECT_FALSE(result->occurrences[0].empty());
  EXPECT_TRUE(result->occurrences[1].empty());
}

TEST(DictBatchTest, EngineBankSinglePatternForm) {
  // The ticket-at-a-time path serve::Session drives: one-pattern tries.
  const auto genome = TestGenome(3000, 97);
  const auto index = FmIndex::Build(genome).value();
  const NaiveSearch oracle(&genome);
  BatchOptions options;
  options.engine = BatchEngine::kDictionary;
  EngineBank bank(&index, options);
  EXPECT_EQ(bank.engine_name(), "dictionary");
  Rng rng(98);
  for (int i = 0; i < 10; ++i) {
    const int32_t k = i % 3;
    const auto pattern =
        SampleWithFlips(genome, rng.NextBounded(genome.size() - 15), 15, k,
                        &rng);
    EXPECT_EQ(bank.Answer(BatchEngine::kDictionary, {pattern, k}).hits,
              oracle.Search(pattern, k));
  }
}

TEST(DictServeTest, SessionServesDictionaryQueries) {
  const auto genome = TestGenome(3000, 101);
  const auto index = FmIndex::Build(genome).value();
  const NaiveSearch oracle(&genome);
  serve::SessionOptions options;
  options.num_threads = 2;
  options.batch.engine = BatchEngine::kDictionary;
  serve::Session session(&index, options);
  Rng rng(102);
  for (int i = 0; i < 8; ++i) {
    const int32_t k = i % 3;
    const auto pattern =
        SampleWithFlips(genome, rng.NextBounded(genome.size() - 18), 18, k,
                        &rng);
    const auto ticket = session.Submit(BatchQuery{pattern, k});
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const auto result = session.Wait(*ticket);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->hits, oracle.Search(pattern, k)) << "query " << i;
  }
}

// --- Sharded seam fuzz ---------------------------------------------------

TEST(DictShardTest, SeamFuzzMatchesMonolithicAndOracle) {
  const auto genome = TestGenome(4000, 103);
  const auto mono_index = FmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.overlap = 32;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();

  // Patterns planted to straddle every shard boundary, plus flipped and
  // random fill; windows (== pattern length for this Hamming engine) stay
  // within the overlap.
  Rng rng(104);
  std::vector<BatchQuery> queries;
  for (size_t s = 0; s + 1 < sharded.plan().num_shards(); ++s) {
    const size_t boundary = sharded.plan().slice(s).core_end;
    for (const size_t len : {20u, 24u}) {
      for (int32_t k = 0; k < 3; ++k) {
        queries.push_back(
            {SampleWithFlips(genome, boundary - len / 2, len, k, &rng), k});
      }
    }
  }
  for (int i = 0; i < 20; ++i) {
    const int32_t k = i % 3;
    const size_t pos = rng.NextBounded(genome.size() - 24);
    queries.push_back({SampleWithFlips(genome, pos, 24, k, &rng), k});
  }

  BatchOptions options;
  options.num_threads = 4;
  options.engine = BatchEngine::kDictionary;
  BatchSearcher mono(&mono_index, options);
  ShardedBatchSearcher router(&sharded, options);
  const BatchResult expected = mono.Search(queries);
  const auto actual = router.Search(queries);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(actual->occurrences.size(), queries.size());
  const NaiveSearch oracle(&genome);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(actual->occurrences[i], expected.occurrences[i])
        << "query " << i;
    EXPECT_EQ(actual->occurrences[i],
              oracle.Search(queries[i].pattern, queries[i].k))
        << "query " << i;
  }
}

// --- RebuildPrefixTable (v1-index upgrade path) -------------------------

TEST(RebuildPrefixTableTest, UpgradeIsResultIdenticalAndPersists) {
  const auto genome = TestGenome(2500, 107);
  auto index = FmIndex::Build(genome).value();  // no table, like a v1 load
  ASSERT_EQ(index.prefix_table_q(), 0u);
  Rng rng(108);
  const auto patterns = MakePatternSet(genome, 32, 12, 2, &rng);
  const auto trie =
      PatternSetTrie::Build(patterns, {.allow_duplicates = true}).value();
  const DictionarySearcher searcher(&index);
  const auto before = searcher.SearchAll(trie, 2);

  ASSERT_TRUE(index.RebuildPrefixTable(5).ok());
  EXPECT_EQ(index.prefix_table_q(), 5u);
  EXPECT_EQ(index.options().prefix_table_q, 5u);
  EXPECT_EQ(searcher.SearchAll(trie, 2), before);

  // The rebuilt table round-trips through serialization (format v2).
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  EXPECT_EQ(loaded.prefix_table_q(), 5u);
  const DictionarySearcher loaded_searcher(&loaded);
  EXPECT_EQ(loaded_searcher.SearchAll(trie, 2), before);

  // q = 0 strips the table; out-of-range q is rejected.
  ASSERT_TRUE(index.RebuildPrefixTable(0).ok());
  EXPECT_EQ(index.prefix_table_q(), 0u);
  EXPECT_EQ(searcher.SearchAll(trie, 2), before);
  EXPECT_EQ(index.RebuildPrefixTable(PrefixIntervalTable::kMaxQ + 1).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bwtk
