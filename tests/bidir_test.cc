#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/naive_search.h"
#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
#include "bidir/search_scheme.h"
#include "bwt/fm_index.h"
#include "bwt/prefix_table.h"
#include "search/result_cache.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::PeriodicDna;
using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

// Brute-force count of exact occurrences of `window` in `text`.
size_t CountExact(const std::vector<DnaCode>& text,
                  const std::vector<DnaCode>& window) {
  if (window.empty()) return text.size() + 1;  // empty-window convention
  size_t count = 0;
  for (size_t pos = 0; pos + window.size() <= text.size(); ++pos) {
    if (std::equal(window.begin(), window.end(), text.begin() + pos)) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// BiFmIndex: synchronization of the two halves
// ---------------------------------------------------------------------------

TEST(BiFmIndexTest, WholeRangeCoversBothMatrices) {
  const auto text = Codes("acagaca");
  const auto index = BiFmIndex::Build(text).value();
  const auto root = index.WholeRange();
  EXPECT_EQ(root.fwd.count(), index.rows());
  EXPECT_EQ(root.rev.count(), index.rows());
  EXPECT_EQ(root.count(), root.fwd.count());
}

TEST(BiFmIndexTest, ExtendRightCountsMatchBruteForce) {
  Rng rng(101);
  const auto text = RandomDna(400, &rng);
  const auto index = BiFmIndex::Build(text).value();
  // Grow windows left to right; at every step both halves must agree with
  // each other and with the brute-force substring count.
  for (int trial = 0; trial < 20; ++trial) {
    const size_t length = 1 + rng.NextBounded(8);
    const size_t pos = rng.NextBounded(text.size() - length);
    std::vector<DnaCode> window;
    auto range = index.WholeRange();
    for (size_t i = 0; i < length; ++i) {
      const DnaCode c = text[pos + i];
      window.push_back(c);
      range = index.ExtendRight(range, c);
      ASSERT_EQ(range.fwd.count(), range.rev.count());
      ASSERT_EQ(range.count(), CountExact(text, window));
    }
  }
}

TEST(BiFmIndexTest, ExtendLeftCountsMatchBruteForce) {
  Rng rng(102);
  const auto text = RandomDna(400, &rng);
  const auto index = BiFmIndex::Build(text).value();
  // The mirror: grow windows right to left.
  for (int trial = 0; trial < 20; ++trial) {
    const size_t length = 1 + rng.NextBounded(8);
    const size_t pos = rng.NextBounded(text.size() - length);
    std::vector<DnaCode> window;
    auto range = index.WholeRange();
    for (size_t i = length; i-- > 0;) {
      const DnaCode c = text[pos + i];
      window.insert(window.begin(), c);
      range = index.ExtendLeft(range, c);
      ASSERT_EQ(range.fwd.count(), range.rev.count());
      ASSERT_EQ(range.count(), CountExact(text, window));
    }
  }
}

TEST(BiFmIndexTest, InterleavedExtensionsStaySynchronized) {
  Rng rng(103);
  const auto text = RandomDna(600, &rng);
  const auto index = BiFmIndex::Build(text).value();
  // Random in-text window grown by alternating left/right extensions in a
  // random interleaving — the access pattern a search scheme produces.
  for (int trial = 0; trial < 30; ++trial) {
    const size_t length = 2 + rng.NextBounded(10);
    const size_t pos = rng.NextBounded(text.size() - length);
    size_t left = rng.NextBounded(length);  // window starts as [left, left]
    size_t right = left + 1;
    auto range = index.ExtendRight(index.WholeRange(), text[pos + left]);
    while (right - left < length) {
      const bool go_right =
          (left == 0) || (right < length && rng.NextBool(0.5));
      if (go_right) {
        range = index.ExtendRight(range, text[pos + right]);
        ++right;
      } else {
        --left;
        range = index.ExtendLeft(range, text[pos + left]);
      }
      ASSERT_EQ(range.fwd.count(), range.rev.count());
      const std::vector<DnaCode> window(text.begin() + pos + left,
                                        text.begin() + pos + right);
      ASSERT_EQ(range.count(), CountExact(text, window));
    }
  }
}

TEST(BiFmIndexTest, LocateMatchesForwardIndex) {
  Rng rng(104);
  const auto text = RandomDna(300, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const std::vector<DnaCode> window(text.begin() + 40, text.begin() + 48);
  // Build the window's BiRange by left extensions, then Locate via the pair;
  // positions must be byte-identical to the forward half's own Locate.
  auto range = index.WholeRange();
  for (size_t i = window.size(); i-- > 0;) {
    range = index.ExtendLeft(range, window[i]);
  }
  ASSERT_FALSE(range.empty());
  auto via_pair = index.Locate(range, window.size());
  auto via_forward = index.forward().Locate(range.fwd, window.size());
  std::sort(via_pair.begin(), via_pair.end());
  std::sort(via_forward.begin(), via_forward.end());
  EXPECT_EQ(via_pair, via_forward);
  for (const size_t pos : via_pair) {
    EXPECT_TRUE(std::equal(window.begin(), window.end(), text.begin() + pos));
  }
}

TEST(BiFmIndexTest, ReverseKeyReversesBase4Digits) {
  // key for "acgt" read as base-4 digits; reversing q=4 gives "tgca".
  const uint64_t key = (0u << 6) | (1u << 4) | (2u << 2) | 3u;
  const uint64_t rev = (3u << 6) | (2u << 4) | (1u << 2) | 0u;
  EXPECT_EQ(BiFmIndex::ReverseKey(key, 4), rev);
  EXPECT_EQ(BiFmIndex::ReverseKey(rev, 4), key);
  EXPECT_EQ(BiFmIndex::ReverseKey(0, 12), 0u);
  // Against a digit-by-digit reversal, for every q a table can have.
  Rng rng(106);
  for (uint32_t q = 1; q <= PrefixIntervalTable::kMaxQ; ++q) {
    for (int trial = 0; trial < 50; ++trial) {
      const uint64_t key = rng.NextBounded(PrefixIntervalTable::KeyCount(q));
      uint64_t digits = key;
      uint64_t reversed = 0;
      for (uint32_t i = 0; i < q; ++i) {
        reversed = (reversed << 2) | (digits & 3);
        digits >>= 2;
      }
      ASSERT_EQ(BiFmIndex::ReverseKey(key, q), reversed) << "q = " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// BiFmIndex: serialization
// ---------------------------------------------------------------------------

TEST(BiFmIndexSerializationTest, RoundTripPreservesQueries) {
  Rng rng(105);
  const auto text = RandomDna(500, &rng);
  const auto built = BiFmIndex::Build(text).value();
  std::stringstream stream;
  ASSERT_TRUE(built.Save(stream).ok());
  const auto loaded = BiFmIndex::Load(stream).value();
  ASSERT_EQ(loaded.text_size(), built.text_size());
  const BidirectionalSearch before(&built), after(&loaded);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pattern = SampleWithFlips(text, rng.NextBounded(400), 30,
                                         static_cast<int>(rng.NextBounded(3)),
                                         &rng);
    EXPECT_EQ(before.Search(pattern, 2, nullptr),
              after.Search(pattern, 2, nullptr));
  }
}

TEST(BiFmIndexSerializationTest, RejectsMonolithicForwardIndexFile) {
  // A plain FmIndex file (magic "BWTK") lacks the reverse half; Load must
  // say so rather than reporting generic corruption.
  const auto forward = FmIndex::Build(Codes("acgtacgtacgt")).value();
  std::stringstream stream;
  ASSERT_TRUE(forward.Save(stream).ok());
  const auto loaded = BiFmIndex::Load(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("forward-only"), std::string::npos)
      << loaded.status().message();
}

TEST(BiFmIndexSerializationTest, RejectsTruncatedStream) {
  const auto built = BiFmIndex::Build(Codes("acgtacgtacgtacgt")).value();
  std::stringstream stream;
  ASSERT_TRUE(built.Save(stream).ok());
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(BiFmIndex::Load(truncated).ok());
}

TEST(BiFmIndexSerializationTest, RejectsCorruptedPayload) {
  const auto built = BiFmIndex::Build(Codes("acgtacgtacgtacgt")).value();
  std::stringstream stream;
  ASSERT_TRUE(built.Save(stream).ok());
  std::string bytes = stream.str();
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit under the checksum
  std::stringstream corrupted(bytes);
  EXPECT_FALSE(BiFmIndex::Load(corrupted).ok());
}

// Swaps, in the saved stream `bytes`, the key-0 entry of `table` with the
// first entry of another width; the entries end `tail` bytes before the
// stream does. Both stay in bounds and the widths keep their sum, so the
// table passes its own loader's checks.
void SwapEntriesOfDifferentWidths(const PrefixIntervalTable& table,
                                  size_t tail, std::string* bytes) {
  const uint64_t keys = PrefixIntervalTable::KeyCount(table.q());
  auto width = [&](uint64_t key) {
    SaIndex lo = 0, hi = 0;
    table.Lookup(key, &lo, &hi);
    return hi - lo;
  };
  uint64_t other = 1;
  while (other < keys && width(other) == width(0)) ++other;
  ASSERT_LT(other, keys);
  const size_t entries = bytes->size() - tail - 8 * keys;
  std::swap_ranges(bytes->begin() + entries, bytes->begin() + entries + 8,
                   bytes->begin() + entries + 8 * other);
}

TEST(BiFmIndexSerializationTest, RejectsSeedTablesThatDisagree) {
  // Swapping two reverse-table entries of different widths keeps that
  // table's bounds and width sum, so only the pair check can catch it.
  Rng rng(108);
  const auto built = BiFmIndex::Build(RandomDna(1000, &rng)).value();
  ASSERT_NE(built.reverse().prefix_table(), nullptr);
  std::stringstream stream;
  ASSERT_TRUE(built.Save(stream).ok());
  std::string bytes = stream.str();
  // The reverse half's entries end before its own checksum and the pair's.
  SwapEntriesOfDifferentWidths(*built.reverse().prefix_table(), 16, &bytes);
  std::stringstream swapped(bytes);
  const auto loaded = BiFmIndex::Load(swapped);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("disagree"), std::string::npos)
      << loaded.status().message();
}

TEST(BiFmIndexTest, FromForwardMatchesDirectBuild) {
  Rng rng(106);
  const auto text = RandomDna(350, &rng);
  const auto direct = BiFmIndex::Build(text).value();
  auto forward = FmIndex::Build(text).value();
  const auto upgraded = BiFmIndex::FromForward(std::move(forward)).value();
  ASSERT_EQ(upgraded.text_size(), direct.text_size());
  const BidirectionalSearch a(&direct), b(&upgraded);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pattern = SampleWithFlips(text, rng.NextBounded(300), 24,
                                         static_cast<int>(rng.NextBounded(4)),
                                         &rng);
    EXPECT_EQ(a.Search(pattern, 3, nullptr), b.Search(pattern, 3, nullptr));
  }
}

std::string SavedBytes(const FmIndex& index) {
  std::stringstream stream;
  EXPECT_TRUE(index.Save(stream).ok());
  return stream.str();
}

TEST(BiFmIndexTest, HalvesSaveTheBytesOfSeparateBuilds) {
  // The forward half is FmIndex::Build(text) with the seed table at
  // SeedTableQ; the reverse half, built on a second thread from the text
  // itself, must still be byte for byte FmIndex::Build(reverse(text)).
  Rng rng(107);
  for (const auto& text :
       {RandomDna(600, &rng), PeriodicDna(700, 5, 0.03, &rng),
        Codes("acagaca"), std::vector<DnaCode>{}}) {
    const auto bidir = BiFmIndex::Build(text).value();
    const FmIndex::Options options{
        .prefix_table_q = BiFmIndex::SeedTableQ(text.size())};
    const std::vector<DnaCode> reversed(text.rbegin(), text.rend());
    EXPECT_EQ(SavedBytes(bidir.forward()),
              SavedBytes(FmIndex::Build(text, options).value()));
    EXPECT_EQ(SavedBytes(bidir.reverse()),
              SavedBytes(FmIndex::Build(reversed, options).value()));
  }
}

TEST(BiFmIndexTest, SeedTableQFollowsTextLength) {
  EXPECT_EQ(BiFmIndex::SeedTableQ(0), 0u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(15), 0u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(16), 1u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(1023), 3u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(1024), 4u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(size_t{1} << 20), 9u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(size_t{1} << 22), 10u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(size_t{1} << 24), 11u);
  EXPECT_EQ(BiFmIndex::SeedTableQ(size_t{1} << 40),
            PrefixIntervalTable::kMaxQ);
}

// A BWTB stream whose halves carry no seed tables, as BiFmIndex::Save wrote
// it before every index carried them: the halves of two FmIndex builds
// framed by the header and closed by the pair checksum.
std::string TablelessPairStream(const std::vector<DnaCode>& text) {
  const auto fwd = FmIndex::Build(text).value();
  const auto rev =
      FmIndex::Build(std::vector<DnaCode>(text.rbegin(), text.rend())).value();
  std::string bytes;
  auto put = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(BiFmIndexFormat::kMagic);
  put(BiFmIndexFormat::kVersion);
  put(uint64_t{text.size()});
  bytes += SavedBytes(fwd) + SavedBytes(rev);
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const uint64_t w :
       {uint64_t{text.size()}, FmIndexVersion(fwd), FmIndexVersion(rev)}) {
    checksum = (checksum ^ w) * 0x100000001b3ULL;
  }
  put(checksum);
  return bytes;
}

TEST(BiFmIndexTest, EveryConstructorTablesBothHalvesAtSeedTableQ) {
  // Lengths on both sides of 4^5, and one too short for any table.
  Rng rng(109);
  for (const auto& [length, q] :
       {std::pair<size_t, uint32_t>{1023, 3}, {1024, 4}, {12, 0}}) {
    SCOPED_TRACE(length);
    const auto text = RandomDna(length, &rng);
    const auto built = BiFmIndex::Build(text).value();
    EXPECT_EQ(built.forward().prefix_table_q(), q);
    EXPECT_EQ(built.reverse().prefix_table_q(), q);
    const std::string fwd_bytes = SavedBytes(built.forward());
    const std::string rev_bytes = SavedBytes(built.reverse());
    // FromForward of a forward index without a table, with one at another
    // q and with one at q, and Load of a table-less stream, all end where
    // Build does.
    for (const uint32_t forward_q : {0u, 5u, q}) {
      const auto upgraded =
          BiFmIndex::FromForward(
              FmIndex::Build(text, {.prefix_table_q = forward_q}).value())
              .value();
      EXPECT_EQ(SavedBytes(upgraded.forward()), fwd_bytes) << forward_q;
      EXPECT_EQ(SavedBytes(upgraded.reverse()), rev_bytes) << forward_q;
    }
    std::stringstream stream(TablelessPairStream(text));
    const auto loaded = BiFmIndex::Load(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SavedBytes(loaded.value().forward()), fwd_bytes);
    EXPECT_EQ(SavedBytes(loaded.value().reverse()), rev_bytes);
  }
}

TEST(BiFmIndexTest, FromForwardRejectsAForwardTableThatDisagrees) {
  // A forward file at SeedTableQ with two entries of different widths
  // swapped loads on its own; FromForward keeps its table, so only the check
  // against the reverse table it builds can catch the swap.
  Rng rng(110);
  const auto text = RandomDna(1000, &rng);
  const auto forward =
      FmIndex::Build(text,
                     {.prefix_table_q = BiFmIndex::SeedTableQ(text.size())})
          .value();
  std::string bytes = SavedBytes(forward);
  // The entries end before the FM-index checksum.
  SwapEntriesOfDifferentWidths(*forward.prefix_table(), 8, &bytes);
  std::stringstream swapped(bytes);
  auto loaded = FmIndex::Load(swapped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto upgraded = BiFmIndex::FromForward(std::move(loaded).value());
  ASSERT_FALSE(upgraded.ok());
  EXPECT_EQ(upgraded.status().code(), StatusCode::kCorruption);
}

TEST(BiFmIndexTest, BuildRejectsPrefixTableQ) {
  const auto built =
      BiFmIndex::Build(Codes("acgtacgtacgtacgtacgt"), {.prefix_table_q = 3});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(BiFmIndexTest, BuildRejectsZeroSampleRate) {
  // Both halves reject the options; Build reports it once both threads are
  // done (the TSan leg reports a thread left unjoined).
  FmIndex::Options options;
  options.sa_sample_rate = 0;
  const auto built = BiFmIndex::Build(Codes("acgtacgt"), options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// SearchScheme: validated construction
// ---------------------------------------------------------------------------

TEST(SearchSchemeTest, PieceBoundaries) {
  EXPECT_EQ(SearchScheme::PieceBoundaries(10, 1),
            (std::vector<uint32_t>{0, 10}));
  EXPECT_EQ(SearchScheme::PieceBoundaries(10, 3),
            (std::vector<uint32_t>{0, 3, 6, 10}));
  EXPECT_EQ(SearchScheme::PieceBoundaries(7, 4),
            (std::vector<uint32_t>{0, 1, 3, 5, 7}));
  EXPECT_EQ(SearchScheme::PieceBoundaries(4, 4),
            (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SearchSchemeTest, CreateRejectsDisconnectedOrder) {
  // Visiting piece 0 then piece 2 leaves a hole: not executable as a pure
  // left/right window growth.
  SchemeSearch bad{{0, 2, 1}, {0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(SearchScheme::Create(1, 3, {bad}).ok());
}

TEST(SearchSchemeTest, CreateRejectsNonPermutationOrder) {
  SchemeSearch bad{{0, 0, 1}, {0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(SearchScheme::Create(1, 3, {bad}).ok());
}

TEST(SearchSchemeTest, CreateRejectsNonMonotoneBounds) {
  SchemeSearch bad{{0, 1}, {0, 0}, {1, 0}};  // upper decreases
  EXPECT_FALSE(SearchScheme::Create(1, 2, {bad}).ok());
  SchemeSearch bad_lower{{0, 1}, {1, 0}, {1, 1}};  // lower decreases
  EXPECT_FALSE(SearchScheme::Create(1, 2, {bad_lower}).ok());
}

TEST(SearchSchemeTest, CreateRejectsLowerAboveUpper) {
  SchemeSearch bad{{0, 1}, {0, 2}, {1, 1}};
  EXPECT_FALSE(SearchScheme::Create(1, 2, {bad}).ok());
}

TEST(SearchSchemeTest, CreateRejectsNonCoveringSet) {
  // Both searches require an exact first piece, so the distribution with a
  // mismatch in piece 0 AND piece 1 escapes... actually with k=2 the vector
  // (1, 1) is admitted by neither search below: search A caps piece 0 at 0,
  // search B caps piece 1 (visited first) at 0.
  SchemeSearch a{{0, 1}, {0, 0}, {0, 2}};
  SchemeSearch b{{1, 0}, {0, 0}, {0, 2}};
  EXPECT_FALSE(SearchScheme::Create(2, 2, {a, b}).ok());
}

TEST(SearchSchemeTest, CreateAcceptsPigeonholePair) {
  // The classic k=1 two-search scheme: exact prefix + permissive suffix,
  // and the mirror. Covers (0,0), (1,0), (0,1) — every vector with <= 1.
  SchemeSearch a{{0, 1}, {0, 0}, {0, 1}};
  SchemeSearch b{{1, 0}, {0, 1}, {0, 1}};
  const auto scheme = SearchScheme::Create(1, 2, {a, b});
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme.value().searches().size(), 2u);
  EXPECT_TRUE(scheme.value().vector_disjoint());
}

TEST(SearchSchemeTest, BuiltInSchemesAreValidAndDisjointThroughK4) {
  for (int32_t k = 0; k <= 4; ++k) {
    const auto scheme = SearchScheme::ForBudget(k);
    EXPECT_EQ(scheme.k(), k);
    EXPECT_TRUE(scheme.vector_disjoint()) << "k = " << k;
    EXPECT_GE(scheme.num_pieces(), static_cast<uint32_t>(k));
    // Re-prove the exact cover by enumeration: every error vector with
    // total <= k admitted by exactly one search.
    const uint32_t p = scheme.num_pieces();
    std::vector<int32_t> vec(p, 0);
    for (;;) {
      int32_t total = 0;
      for (const int32_t v : vec) total += v;
      if (total <= k) {
        int admitted = 0;
        for (const auto& search : scheme.searches()) {
          admitted += SearchScheme::Admits(search, vec);
        }
        EXPECT_EQ(admitted, 1) << "k = " << k;
      }
      size_t i = 0;
      while (i < p && vec[i] == k) vec[i++] = 0;
      if (i == p) break;
      ++vec[i];
    }
  }
}

TEST(SearchSchemeTest, PigeonholeFallbackCoversK5) {
  const auto scheme = SearchScheme::ForBudget(5);
  EXPECT_EQ(scheme.k(), 5);
  EXPECT_EQ(scheme.num_pieces(), 6u);  // k+1 pieces
  std::vector<int32_t> vec(scheme.num_pieces(), 0);
  // Spot-check coverage on a few adversarial vectors (full enumeration at
  // k=5 is the validator's job at Create time).
  const std::vector<std::vector<int32_t>> cases = {
      {5, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 5}, {1, 1, 1, 1, 1, 0},
      {0, 1, 1, 1, 1, 1}, {2, 0, 1, 0, 2, 0}, {0, 0, 0, 0, 0, 0}};
  for (const auto& v : cases) {
    int admitted = 0;
    for (const auto& search : scheme.searches()) {
      admitted += SearchScheme::Admits(search, v);
    }
    EXPECT_GE(admitted, 1) << "vector escaped the k=5 fallback";
  }
}

TEST(SearchSchemeTest, TrivialSchemeAdmitsEverything) {
  const auto scheme = SearchScheme::Trivial(3);
  ASSERT_EQ(scheme.searches().size(), 1u);
  EXPECT_EQ(scheme.num_pieces(), 1u);
  EXPECT_TRUE(scheme.vector_disjoint());
  for (int32_t total = 0; total <= 3; ++total) {
    EXPECT_TRUE(SearchScheme::Admits(scheme.searches()[0], {total}));
  }
}

// ---------------------------------------------------------------------------
// BidirectionalSearch: cross-validation against the naive scanner
// ---------------------------------------------------------------------------

// The index's seed tables take their q from the text length, so the
// lengths choose whether (and how deep) first pieces are seeded.
void CrossValidate(size_t text_length, uint32_t q, uint64_t seed) {
  Rng rng(seed);
  const auto text = RandomDna(text_length, &rng);
  const auto index = BiFmIndex::Build(text).value();
  ASSERT_EQ(index.forward().prefix_table_q(), q);
  const BidirectionalSearch searcher(&index);
  const NaiveSearch naive(&text);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t length =
        1 + rng.NextBounded(std::min<size_t>(text_length, 71));
    const int32_t k = static_cast<int32_t>(rng.NextBounded(7));
    std::vector<DnaCode> pattern;
    if (rng.NextBool(0.5)) {
      pattern = SampleWithFlips(text,
                                rng.NextBounded(text.size() - length + 1),
                                length, static_cast<int>(rng.NextBounded(4)),
                                &rng);
    } else {
      pattern = RandomDna(length, &rng);
    }
    SearchStats stats;
    const auto hits = searcher.Search(pattern, k, &stats);
    ASSERT_EQ(hits, naive.Search(pattern, k))
        << "n = " << text_length << " m = " << length << " k = " << k
        << " q = " << q;
    // A hit takes at least one extend past the seed's depth q; a pattern of
    // exactly q symbols can be answered by the tables alone.
    if (!hits.empty() && length > q) {
      EXPECT_GT(stats.extend_calls, 0u);
    }
  }
}

TEST(BidirectionalSearchTest, MatchesNaiveScanner) {
  CrossValidate(15, 0, 201);
  CrossValidate(200, 2, 202);
  CrossValidate(1000, 3, 203);
  CrossValidate(3000, 4, 204);
  CrossValidate(5000, 5, 205);
}

TEST(BidirectionalSearchTest, MatchesNaiveOnPeriodicText) {
  // Repetitive text exercises wide ranges and duplicate-heavy traversals.
  Rng rng(203);
  const auto text = PeriodicDna(900, 7, 0.02, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch searcher(&index);
  const NaiveSearch naive(&text);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t length = 10 + rng.NextBounded(30);
    const int32_t k = static_cast<int32_t>(rng.NextBounded(5));
    const auto pattern =
        SampleWithFlips(text, rng.NextBounded(text.size() - length), length,
                        static_cast<int>(rng.NextBounded(3)), &rng);
    ASSERT_EQ(searcher.Search(pattern, k, nullptr), naive.Search(pattern, k))
        << "m = " << length << " k = " << k;
  }
}

TEST(BidirectionalSearchTest, EdgeCases) {
  Rng rng(205);
  const auto text = Codes("acagacatgca");
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch searcher(&index);
  const NaiveSearch naive(&text);
  // Pattern longer than the text: no hits.
  const auto long_pattern = RandomDna(32, &rng);
  EXPECT_TRUE(searcher.Search(long_pattern, 2, nullptr).empty());
  // k >= m: every window matches; budget must clamp, not overflow.
  const auto pattern = Codes("ttt");
  EXPECT_EQ(searcher.Search(pattern, 10, nullptr), naive.Search(pattern, 10));
  // Single-character pattern under Trivial fallback.
  const auto single = Codes("g");
  EXPECT_EQ(searcher.Search(single, 0, nullptr), naive.Search(single, 0));
  EXPECT_EQ(searcher.Search(single, 1, nullptr), naive.Search(single, 1));
}

TEST(BidirectionalSearchTest, PaperWorkedExample) {
  // Same worked example the S-tree test pins: r = tcaca in s = acagaca with
  // k = 2 has occurrences at 0 and 2, both distance 2.
  const auto index = BiFmIndex::Build(Codes("acagaca")).value();
  const BidirectionalSearch searcher(&index);
  const auto hits = searcher.Search(Codes("tcaca"), 2, nullptr);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (Occurrence{0, 2}));
  EXPECT_EQ(hits[1], (Occurrence{2, 2}));
}

TEST(BidirectionalSearchTest, StatsCountPruningByKind) {
  Rng rng(204);
  const auto text = RandomDna(2000, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch searcher(&index);
  // A pattern present exactly in the text: the branch that follows the text
  // survives to the piece boundaries of every search, so the searches whose
  // lower bounds demand mismatches must cut it (tau_pruned), while random
  // branches elsewhere die on the upper bounds (budget_pruned).
  const auto pattern = SampleWithFlips(text, 700, 40, 0, &rng);
  SearchStats stats;
  searcher.Search(pattern, 2, &stats);
  EXPECT_GT(stats.extend_calls, 0u);
  EXPECT_GT(stats.budget_pruned, 0u);
  EXPECT_GT(stats.tau_pruned, 0u);
}

// ---------------------------------------------------------------------------
// BidirWalkSet: several walks in flight answer like one at a time
// ---------------------------------------------------------------------------

struct WalkAnswer {
  std::vector<Occurrence> hits;
  SearchStats stats;
};

// Answers `queries` through a set of `width` slots the way EngineBank does:
// fill every free slot, step until a walk finishes, refill its slot.
std::vector<WalkAnswer> AnswerThroughWalks(
    const BidirectionalSearch& engine,
    const std::vector<std::pair<std::vector<DnaCode>, int32_t>>& queries,
    size_t width) {
  BidirWalkSet walks(width);
  EXPECT_EQ(walks.width(), width);
  std::vector<WalkAnswer> answers(queries.size());
  std::vector<size_t> query_in_slot(width);
  size_t next = 0;
  for (;;) {
    while (next < queries.size() && walks.in_flight() < walks.width()) {
      const size_t slot = walks.FreeSlot();
      query_in_slot[slot] = next;
      walks.Start(slot, engine, queries[next].first, queries[next].second,
                  nullptr);
      ++next;
    }
    const size_t slot = walks.Next();
    if (slot == BidirWalkSet::kNoSlot) break;
    WalkAnswer& answer = answers[query_in_slot[slot]];
    answer.hits = walks.TakeHits(slot);
    answer.stats = walks.stats(slot);
    EXPECT_EQ(walks.own_nanos(slot), 0u);  // untraced walks read no clock
  }
  EXPECT_EQ(next, queries.size());
  EXPECT_EQ(walks.in_flight(), 0u);
  return answers;
}

TEST(BidirWalkSetTest, InterleavedWalksMatchOneAtATimeAndNaive) {
  // About 300 queries over two texts: k up to 5 (the pigeonhole fallback),
  // lengths 1..71 (short ones fall back to the Trivial scheme), plus
  // patterns longer than the text, empty patterns and k < 0.
  for (const size_t n : {size_t{1000}, size_t{5000}}) {
    Rng rng(400 + n);
    const auto text = RandomDna(n, &rng);
    const auto index = BiFmIndex::Build(text).value();
    const BidirectionalSearch engine(&index);
    const NaiveSearch naive(&text);
    std::vector<std::pair<std::vector<DnaCode>, int32_t>> queries;
    for (int i = 0; i < 150; ++i) {
      const size_t length = 1 + rng.NextBounded(71);
      const int32_t k = static_cast<int32_t>(rng.NextBounded(6));
      if (rng.NextBool(0.6)) {
        queries.push_back(
            {SampleWithFlips(text, rng.NextBounded(n - length + 1), length,
                             static_cast<int>(rng.NextBounded(4)), &rng),
             k});
      } else {
        queries.push_back({RandomDna(length, &rng), k});
      }
    }
    queries.push_back({RandomDna(n + 5, &rng), 2});
    queries.push_back({{}, 1});
    queries.push_back({RandomDna(30, &rng), -1});

    std::vector<WalkAnswer> alone;
    for (const auto& [pattern, k] : queries) {
      WalkAnswer answer;
      answer.hits = engine.Search(pattern, k, &answer.stats);
      if (!pattern.empty() && pattern.size() <= n && k >= 0) {
        ASSERT_EQ(answer.hits, naive.Search(pattern, k))
            << "n = " << n << " m = " << pattern.size() << " k = " << k;
      } else {
        EXPECT_TRUE(answer.hits.empty());
        EXPECT_EQ(answer.stats, SearchStats{});
      }
      alone.push_back(std::move(answer));
    }
    for (const size_t width : {size_t{1}, size_t{3}, size_t{8},
                               queries.size() + 5}) {
      const std::vector<WalkAnswer> interleaved =
          AnswerThroughWalks(engine, queries, width);
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(interleaved[q].hits, alone[q].hits)
            << "n = " << n << " width " << width << " query " << q;
        ASSERT_EQ(interleaved[q].stats, alone[q].stats)
            << "n = " << n << " width " << width << " query " << q;
      }
    }
  }
}

TEST(BidirWalkSetTest, TracedWalksKeepTheirOwnNodesAndTime) {
  // Each walk records into its own trace; with eight in flight, every trace
  // must still profile exactly its own query's nodes.
  Rng rng(410);
  const auto text = RandomDna(4000, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch engine(&index);
  std::vector<std::vector<DnaCode>> patterns;
  for (int i = 0; i < 8; ++i) {
    patterns.push_back(SampleWithFlips(text, rng.NextBounded(3900), 40 + i,
                                       i % 3, &rng));
  }
  BidirWalkSet walks(8);
  std::vector<obs::Trace> traces(patterns.size());
  std::vector<size_t> query_in_slot(walks.width());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const size_t slot = walks.FreeSlot();
    query_in_slot[slot] = i;
    walks.Start(slot, engine, patterns[i], 2, &traces[i]);
  }
  for (size_t done = 0; done < patterns.size(); ++done) {
    const size_t slot = walks.Next();
    ASSERT_NE(slot, BidirWalkSet::kNoSlot);
    const size_t i = query_in_slot[slot];
    SearchStats alone;
    EXPECT_EQ(walks.TakeHits(slot), engine.Search(patterns[i], 2, &alone));
    EXPECT_EQ(walks.stats(slot), alone);
    const obs::Trace& trace = traces[i];
    if (BWTK_METRICS_ENABLED) {
      EXPECT_EQ(trace.NodesExpanded(), alone.stree_nodes);
    }
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_EQ(trace.spans[0].name, "bidir_scheme_walk");
    EXPECT_EQ(trace.spans[0].dur_ns, walks.own_nanos(slot));
    EXPECT_GT(walks.own_nanos(slot), 0u);
  }
  EXPECT_EQ(walks.Next(), BidirWalkSet::kNoSlot);
}

// ---------------------------------------------------------------------------
// Scheme property test: per-search emission == per-search admission,
// exhaustively for small m and k.
// ---------------------------------------------------------------------------

// All windows of `text` at Hamming distance <= k_cap from `pattern`, keyed
// by position, with their per-piece mismatch vectors.
std::map<size_t, std::vector<int32_t>> MismatchVectors(
    const std::vector<DnaCode>& text, const std::vector<DnaCode>& pattern,
    const std::vector<uint32_t>& boundaries) {
  std::map<size_t, std::vector<int32_t>> vectors;
  const size_t m = pattern.size();
  if (text.size() < m) return vectors;
  const size_t pieces = boundaries.size() - 1;
  for (size_t pos = 0; pos + m <= text.size(); ++pos) {
    std::vector<int32_t> vec(pieces, 0);
    for (size_t piece = 0; piece < pieces; ++piece) {
      for (uint32_t i = boundaries[piece]; i < boundaries[piece + 1]; ++i) {
        vec[piece] += text[pos + i] != pattern[i];
      }
    }
    vectors.emplace(pos, std::move(vec));
  }
  return vectors;
}

TEST(SchemePropertyTest, PerSearchHitsMatchAdmissionExhaustively) {
  // For every built-in scheme with k <= 3 and every pattern length m <= 12
  // that fits the scheme's pieces: each search must emit exactly the
  // occurrences whose per-piece mismatch vector it admits (no miss, no
  // duplicate within a search), and — the schemes being vector-disjoint —
  // each occurrence with <= k total mismatches must be emitted by exactly
  // one search.
  Rng rng(301);
  const auto text = RandomDna(160, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch searcher(&index);
  for (int32_t k = 0; k <= 3; ++k) {
    const auto scheme = SearchScheme::ForBudget(k);
    ASSERT_TRUE(scheme.vector_disjoint());
    for (uint32_t m = std::max<uint32_t>(scheme.num_pieces(), 1); m <= 12;
         ++m) {
      const auto boundaries =
          SearchScheme::PieceBoundaries(m, scheme.num_pieces());
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<DnaCode> pattern;
        if (trial % 2 == 0) {
          pattern = SampleWithFlips(text, rng.NextBounded(text.size() - m), m,
                                    static_cast<int>(rng.NextBounded(k + 1)),
                                    &rng);
        } else {
          pattern = RandomDna(m, &rng);
        }
        const auto vectors = MismatchVectors(text, pattern, boundaries);
        std::map<size_t, int> total_emitted;
        for (size_t s = 0; s < scheme.searches().size(); ++s) {
          std::vector<Occurrence> hits;
          searcher.ExecuteSearch(pattern, scheme, s, &hits, nullptr);
          std::map<size_t, int> emitted;
          for (const auto& hit : hits) {
            ++emitted[hit.position];
            ++total_emitted[hit.position];
            // Reported distance must be the true Hamming distance.
            const auto& vec = vectors.at(hit.position);
            int32_t total = 0;
            for (const int32_t v : vec) total += v;
            EXPECT_EQ(hit.mismatches, total);
          }
          for (const auto& [pos, vec] : vectors) {
            const int expected =
                SearchScheme::Admits(scheme.searches()[s], vec) ? 1 : 0;
            const auto it = emitted.find(pos);
            const int got = it == emitted.end() ? 0 : it->second;
            ASSERT_EQ(got, expected)
                << "k = " << k << " m = " << m << " search " << s
                << " position " << pos;
          }
        }
        // Disjointness end to end: every admissible occurrence exactly once
        // across the whole scheme.
        for (const auto& [pos, vec] : vectors) {
          int32_t total = 0;
          for (const int32_t v : vec) total += v;
          const auto it = total_emitted.find(pos);
          const int got = it == total_emitted.end() ? 0 : it->second;
          ASSERT_EQ(got, total <= k ? 1 : 0)
              << "k = " << k << " m = " << m << " position " << pos;
        }
      }
    }
  }
}

TEST(SchemePropertyTest, CustomSchemeOverrideIsHonored) {
  // An engine handed an explicit (overlapping) scheme must still produce
  // normalized, deduplicated, naive-identical output.
  Rng rng(302);
  const auto text = RandomDna(500, &rng);
  const auto index = BiFmIndex::Build(text).value();
  // Pigeonhole k=1 variant where BOTH searches admit the all-exact vector:
  // covering but overlapping, so the executor's dedup pass must fire.
  SchemeSearch a{{0, 1}, {0, 0}, {0, 1}};
  SchemeSearch b{{1, 0}, {0, 0}, {0, 1}};
  const auto overlapping = SearchScheme::Create(1, 2, {a, b}).value();
  ASSERT_FALSE(overlapping.vector_disjoint());
  BidirOptions options;
  options.scheme = &overlapping;
  const BidirectionalSearch searcher(&index, options);
  const NaiveSearch naive(&text);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pattern =
        SampleWithFlips(text, rng.NextBounded(460), 20,
                        static_cast<int>(rng.NextBounded(2)), &rng);
    ASSERT_EQ(searcher.Search(pattern, 1, nullptr), naive.Search(pattern, 1));
  }
}

}  // namespace
}  // namespace bwtk
