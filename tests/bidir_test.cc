#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
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
#include "obs/metrics.h"
#include "search/result_cache.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::PeriodicDna;
using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

// The process-wide total of counter `id` so far (0 in builds without
// metrics).
uint64_t CounterTotal(obs::CounterId id) {
  return obs::MetricsRegistry::Instance().Snapshot().counters[id];
}

// Rows the scheme walks on this process have read on in the text so far.
uint64_t VerifiedRows() {
  return CounterTotal(obs::kCounterBidirVerifiedRows);
}

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

// The bytes `index` saves.
template <typename Index>
std::string SavedBytes(const Index& index) {
  std::stringstream stream;
  EXPECT_TRUE(index.Save(stream).ok());
  return stream.str();
}

// `bytes`, a saved FmIndex stream, as the same half without suffix-array
// samples saves it: sample rate 0 and both sample sections empty.
std::string WithoutSamples(std::string bytes) {
  auto count_at = [&bytes](size_t offset) {
    uint64_t count = 0;
    std::memcpy(&count, bytes.data() + offset, sizeof(count));
    return static_cast<size_t>(count);
  };
  // Magic, version, n and the checkpoint rate come before the sample rate;
  // the sentinel row and the BWT size follow it, then the BWT words.
  const uint32_t no_rate = 0;
  std::memcpy(bytes.data() + 20, &no_rate, sizeof(no_rate));
  const size_t marks = 48 + 8 * count_at(40);
  const size_t samples = marks + 8 + 8 * count_at(marks);
  const size_t end = samples + 8 + sizeof(SaIndex) * count_at(samples);
  return bytes.substr(0, marks) + std::string(16, '\0') + bytes.substr(end);
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

TEST(BiFmIndexTest, ForwardRowsOfALeftExtensionLocateTheWindow) {
  Rng rng(104);
  const auto text = RandomDna(300, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const std::vector<DnaCode> window(text.begin() + 40, text.begin() + 48);
  // Build the window's BiRange by left extensions, which rank the reverse
  // half and resynchronize the forward rows: those rows must locate
  // exactly the window's occurrences.
  auto range = index.WholeRange();
  for (size_t i = window.size(); i-- > 0;) {
    range = index.ExtendLeft(range, window[i]);
  }
  ASSERT_FALSE(range.empty());
  const auto positions = index.forward().Locate(range.fwd, window.size());
  EXPECT_EQ(positions.size(), CountExact(text, window));
  for (const size_t pos : positions) {
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

// A scheme walk seeds its first piece from the two tables, the forward one
// at each variant's key and the reverse one at its reversed key. Both
// entries must be the co-range that q right extensions from the root reach
// on the variant's string.
TEST(BiFmIndexTest, SeedVariantsLookUpTheCoRangeOfTheirString) {
  Rng rng(110);
  for (const size_t length : {size_t{5000}, size_t{1} << 17}) {
    const auto text = RandomDna(length, &rng);
    const auto index = BiFmIndex::Build(text).value();
    const uint32_t q = BiFmIndex::SeedTableQ(text.size());
    ASSERT_EQ(index.forward().prefix_table_q(), q);
    ASSERT_EQ(index.reverse().prefix_table_q(), q);
    const PrefixIntervalTable& fwd = *index.forward().prefix_table();
    const PrefixIntervalTable& rev = *index.reverse().prefix_table();
    size_t seeded = 0;
    for (int trial = 0; trial < 12; ++trial) {
      // Grams of the text and uniformly random ones.
      const size_t pos = rng.NextBounded(text.size() - q);
      const auto gram =
          trial % 2 == 0
              ? std::vector<DnaCode>(text.begin() + pos, text.begin() + pos + q)
              : RandomDna(q, &rng);
      for (int32_t budget = 0;
           budget <= PrefixIntervalTable::kMaxSeedMismatches; ++budget) {
        PrefixIntervalTable::ForEachVariant(
            gram.data(), q, budget,
            [&](const PrefixIntervalTable::Variant& v) {
              std::vector<DnaCode> spelled = gram;
              for (int32_t s = 0; s < v.mismatches; ++s) {
                spelled[v.subs[s].first] = v.subs[s].second;
              }
              BiFmIndex::BiRange stepped = index.WholeRange();
              for (const DnaCode c : spelled) {
                BiFmIndex::BiRange children[kDnaAlphabetSize];
                index.ExtendRightAll(stepped, children);
                stepped = children[c];
              }
              SaIndex flo = 0;
              SaIndex fhi = 0;
              SaIndex rlo = 0;
              SaIndex rhi = 0;
              ASSERT_EQ(fwd.Lookup(v.key, &flo, &fhi), !stepped.empty());
              ASSERT_EQ(rev.Lookup(v.reverse_key, &rlo, &rhi),
                        !stepped.empty());
              if (stepped.empty()) return;
              ++seeded;
              EXPECT_EQ(flo, stepped.fwd.lo);
              EXPECT_EQ(fhi, stepped.fwd.hi);
              EXPECT_EQ(rlo, stepped.rev.lo);
              EXPECT_EQ(rhi, stepped.rev.hi);
            });
      }
    }
    EXPECT_GT(seeded, 0u);
  }
}

// ---------------------------------------------------------------------------
// BiFmIndex: serialization
// ---------------------------------------------------------------------------

TEST(BiFmIndexSerializationTest, RoundTripPreservesQueries) {
  // The stream holds the halves only; Load rebuilds the text from the
  // forward half, so the loaded index answers like the one it was saved
  // from, counters included, holds as many bytes and saves the same ones.
  Rng rng(105);
  const auto text = RandomDna(500, &rng);
  const auto built = BiFmIndex::Build(text).value();
  const std::string bytes = SavedBytes(built);
  std::stringstream stream(bytes);
  const auto loaded = BiFmIndex::Load(stream).value();
  ASSERT_EQ(loaded.text_size(), built.text_size());
  EXPECT_EQ(loaded.text().Unpack(), text);
  EXPECT_EQ(loaded.MemoryUsage(), built.MemoryUsage());
  const BidirectionalSearch before(&built), after(&loaded);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pattern = SampleWithFlips(text, rng.NextBounded(400), 30,
                                         static_cast<int>(rng.NextBounded(3)),
                                         &rng);
    SearchStats before_stats, after_stats;
    EXPECT_EQ(before.Search(pattern, 2, &before_stats),
              after.Search(pattern, 2, &after_stats));
    EXPECT_EQ(before_stats, after_stats);
  }
  EXPECT_EQ(SavedBytes(loaded), bytes);
}

TEST(BiFmIndexTest, KeepsItsTextPacked) {
  Rng rng(111);
  const auto text = RandomDna(777, &rng);
  const auto built = BiFmIndex::Build(text).value();
  EXPECT_EQ(built.text().Unpack(), text);
  EXPECT_EQ(built.MemoryUsage(), built.forward().MemoryUsage() +
                                     built.reverse().MemoryUsage() +
                                     built.text().MemoryUsage());
  const auto upgraded =
      BiFmIndex::FromForward(FmIndex::Build(text).value()).value();
  EXPECT_EQ(upgraded.text().Unpack(), text);
  EXPECT_TRUE(BiFmIndex::Build({}).value().text().empty());
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

TEST(BiFmIndexSerializationTest, ForwardLoaderRejectsTheReverseHalf) {
  // The reverse half keeps no suffix-array samples, so the forward-only
  // engines, which all locate, must not load it as a plain FM-index file.
  Rng rng(112);
  const auto built = BiFmIndex::Build(RandomDna(400, &rng)).value();
  std::stringstream reverse_half(SavedBytes(built.reverse()));
  const auto loaded = FmIndex::Load(reverse_half);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("no suffix-array samples"),
            std::string::npos)
      << loaded.status().message();
  std::stringstream forward_half(SavedBytes(built.forward()));
  EXPECT_TRUE(FmIndex::Load(forward_half).ok());
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

TEST(BiFmIndexTest, HalvesSaveTheBytesOfSeparateBuilds) {
  // The forward half is FmIndex::Build(text) with the seed table at
  // SeedTableQ; the reverse half, built on a second thread from the text
  // itself, must still be byte for byte FmIndex::Build(reverse(text)),
  // less its suffix-array samples.
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
              WithoutSamples(
                  SavedBytes(FmIndex::Build(reversed, options).value())));
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

// A version-1 BWTB stream whose halves carry no seed tables, as
// BiFmIndex::Save wrote it before every index carried them: the halves of
// two FmIndex builds, both with suffix-array samples, framed by the header
// and closed by the pair checksum.
std::string TablelessPairStream(const std::vector<DnaCode>& text) {
  const auto fwd = FmIndex::Build(text).value();
  const auto rev =
      FmIndex::Build(std::vector<DnaCode>(text.rbegin(), text.rend())).value();
  std::string bytes;
  auto put = [&bytes](auto value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(BiFmIndexFormat::kMagic);
  put(uint32_t{1});
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
    // q and with one at q, and Load of a table-less version-1 stream (whose
    // reverse half's samples it drops), all end where Build does.
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
    EXPECT_EQ(loaded.value().MemoryUsage(), built.MemoryUsage());
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
  // The forward half rejects the options (the reverse half keeps no samples
  // at any rate); Build reports it once both threads are done (the TSan leg
  // reports a thread left unjoined).
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
// Narrow frames finished in the text
// ---------------------------------------------------------------------------

void Append(const std::vector<DnaCode>& part, std::vector<DnaCode>* text) {
  text->insert(text->end(), part.begin(), part.end());
}

using Queries = std::vector<std::pair<std::vector<DnaCode>, int32_t>>;

// Four near-copies of one block around a random stretch, so that narrow
// intervals hold 2 to 4 rows, and queries on it: patterns start at 0 and at
// n - m, hang over either end of the text, and sit inside the copies; k
// runs from 0 to 5.
void RepeatsAndTextEnds(std::vector<DnaCode>* text, Queries* queries) {
  Rng rng(420);
  const auto block = RandomDna(250, &rng);
  Append(block, text);
  Append(SampleWithFlips(block, 0, block.size(), 3, &rng), text);
  Append(RandomDna(150, &rng), text);
  Append(block, text);
  Append(SampleWithFlips(block, 0, block.size(), 6, &rng), text);
  const size_t n = text->size();
  for (const size_t m : {size_t{16}, size_t{24}, size_t{40}, size_t{64}}) {
    for (int32_t k = 0; k <= 5; ++k) {
      const int flips = static_cast<int>(rng.NextBounded(k + 1));
      queries->push_back({SampleWithFlips(*text, 0, m, flips, &rng), k});
      queries->push_back({SampleWithFlips(*text, n - m, m, flips, &rng), k});
      const size_t over = 1 + rng.NextBounded(k + 2);
      std::vector<DnaCode> head = RandomDna(over, &rng);
      head.insert(head.end(), text->begin(), text->begin() + (m - over));
      queries->push_back({head, k});
      std::vector<DnaCode> tail(text->end() - (m - over), text->end());
      Append(RandomDna(over, &rng), &tail);
      queries->push_back({tail, k});
      queries->push_back(
          {SampleWithFlips(block, rng.NextBounded(block.size() - m + 1), m,
                           flips, &rng),
           k});
    }
  }
}

TEST(FinishInTextTest, MatchesNaiveOnRepeatsAndAtTheTextEnds) {
  std::vector<DnaCode> text;
  Queries queries;
  RepeatsAndTextEnds(&text, &queries);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch engine(&index);
  const NaiveSearch naive(&text);
  const uint64_t verified_before = VerifiedRows();
  const std::vector<WalkAnswer> alone = AnswerThroughWalks(engine, queries, 1);
  const std::vector<WalkAnswer> interleaved =
      AnswerThroughWalks(engine, queries, 8);
  bool repeated_string = false;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto& [pattern, k] = queries[q];
    ASSERT_EQ(alone[q].hits, naive.Search(pattern, k))
        << "query " << q << " m = " << pattern.size() << " k = " << k;
    ASSERT_EQ(interleaved[q].hits, alone[q].hits) << "query " << q;
    ASSERT_EQ(interleaved[q].stats, alone[q].stats) << "query " << q;
    repeated_string |= alone[q].hits.size() > alone[q].stats.completed_paths;
  }
  // Some string matched at several positions, and counted one path.
  EXPECT_TRUE(repeated_string);
  if (BWTK_METRICS_ENABLED) {
    EXPECT_GT(VerifiedRows(), verified_before);
  }
}

TEST(FinishInTextTest, LongResolveChainsMatchAtEveryWidth) {
  // Rows resolve one locate step per turn. At sample rate 32 a row takes up
  // to 31 LF steps to its sample, so its resolve spans many turns and
  // interleaves with the other walks' extends; at rate 1 every row is
  // sampled and no LF step is taken. The periodic text, 30 noisy copies of
  // a 40-base unit, gives complete frames of more than 4 rows, which are
  // resolved 4 at a time. Hits must equal the naive scanner's, and hits,
  // stats and LF steps must be the same at every width.
  std::vector<DnaCode> repeats;
  Queries repeat_queries;
  RepeatsAndTextEnds(&repeats, &repeat_queries);
  Rng rng(422);
  const std::vector<DnaCode> periodic = PeriodicDna(1200, 40, 0.002, &rng);
  Queries periodic_queries;
  for (int i = 0; i < 60; ++i) {
    const size_t m = 16 + rng.NextBounded(60);
    const int32_t k = static_cast<int32_t>(rng.NextBounded(4));
    periodic_queries.push_back(
        {SampleWithFlips(periodic, rng.NextBounded(periodic.size() - m + 1),
                         m, static_cast<int>(rng.NextBounded(k + 1)), &rng),
         k});
  }
  for (const uint32_t rate : {1u, 8u, 32u}) {
    for (const auto& [text, queries] :
         {std::pair<const std::vector<DnaCode>*, const Queries*>{
              &repeats, &repeat_queries},
          {&periodic, &periodic_queries}}) {
      SCOPED_TRACE("rate " + std::to_string(rate) + ", n = " +
                   std::to_string(text->size()));
      const auto index =
          BiFmIndex::Build(*text, {.sa_sample_rate = rate}).value();
      const BidirectionalSearch engine(&index);
      const NaiveSearch naive(text);
      uint64_t lf_before = CounterTotal(obs::kCounterLfSteps);
      const std::vector<WalkAnswer> alone =
          AnswerThroughWalks(engine, *queries, 1);
      const uint64_t lf_steps = CounterTotal(obs::kCounterLfSteps) - lf_before;
      bool wide_complete_frame = false;
      for (size_t q = 0; q < queries->size(); ++q) {
        const auto& [pattern, k] = (*queries)[q];
        ASSERT_EQ(alone[q].hits, naive.Search(pattern, k)) << "query " << q;
        // At k = 0 every hit comes from one complete frame.
        wide_complete_frame |= k == 0 && alone[q].hits.size() > 4;
      }
      if (text == &periodic) {
        EXPECT_TRUE(wide_complete_frame);
      }
      if (BWTK_METRICS_ENABLED) {
        EXPECT_EQ(lf_steps == 0, rate == 1) << lf_steps;
      }
      for (const size_t width : {size_t{3}, size_t{8}}) {
        lf_before = CounterTotal(obs::kCounterLfSteps);
        const std::vector<WalkAnswer> interleaved =
            AnswerThroughWalks(engine, *queries, width);
        EXPECT_EQ(CounterTotal(obs::kCounterLfSteps) - lf_before, lf_steps)
            << "width " << width;
        for (size_t q = 0; q < queries->size(); ++q) {
          ASSERT_EQ(interleaved[q].hits, alone[q].hits)
              << "width " << width << " query " << q;
          ASSERT_EQ(interleaved[q].stats, alone[q].stats)
              << "width " << width << " query " << q;
        }
      }
    }
  }
}

TEST(FinishInTextTest, CountsOneCompletedPathPerDistinctString) {
  // Three copies of a block among random stretches: two identical, the
  // third with its last base changed. At k = 1 the block has 3 hits, which
  // match 2 distinct strings, so the walk completes 2 paths; the first
  // pieces of all three copies land in one interval that is finished in
  // the text.
  Rng rng(421);
  const auto block = RandomDna(40, &rng);
  const std::vector<DnaCode> changed = [&block] {
    std::vector<DnaCode> copy = block;
    copy.back() = static_cast<DnaCode>((copy.back() + 1) & 3);
    return copy;
  }();
  std::vector<DnaCode> text;
  for (const auto* copy : {&block, &block, &changed}) {
    Append(RandomDna(300, &rng), &text);
    Append(*copy, &text);
  }
  Append(RandomDna(300, &rng), &text);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch engine(&index);
  const uint64_t verified_before = VerifiedRows();
  SearchStats stats;
  const auto hits = engine.Search(block, 1, &stats);
  ASSERT_EQ(hits, NaiveSearch(&text).Search(block, 1));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(stats.completed_paths, 2u);
  if (BWTK_METRICS_ENABLED) {
    EXPECT_GE(VerifiedRows() - verified_before, 3u);
  }
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
  // For every built-in scheme with k <= 3 and every pattern length m <= 16
  // that fits the scheme's pieces: each search must emit exactly the
  // occurrences whose per-piece mismatch vector it admits (no miss, no
  // duplicate within a search), and — the schemes being vector-disjoint —
  // each occurrence with <= k total mismatches must be emitted by exactly
  // one search. On this 160-base text, windows of 6 symbols and more are
  // long enough for narrow frames to be finished in the text, so the
  // text comparison is held to the same admission.
  Rng rng(301);
  const auto text = RandomDna(160, &rng);
  const auto index = BiFmIndex::Build(text).value();
  const BidirectionalSearch searcher(&index);
  const uint64_t verified_before = VerifiedRows();
  for (int32_t k = 0; k <= 3; ++k) {
    const auto scheme = SearchScheme::ForBudget(k);
    ASSERT_TRUE(scheme.vector_disjoint());
    for (uint32_t m = std::max<uint32_t>(scheme.num_pieces(), 1); m <= 16;
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
  if (BWTK_METRICS_ENABLED) {
    EXPECT_GT(VerifiedRows(), verified_before);
  }
}

TEST(SchemePropertyTest, ExecuteSearchFindsNothingLongerThanTheText) {
  // A pattern longer than the text, here the text with four bases more,
  // occurs nowhere in it, nor does any pattern in an empty text. Each
  // search must say so without reading past the end of the packed text,
  // whose last word pads with A.
  Rng rng(303);
  const auto text = RandomDna(20, &rng);
  auto pattern = text;
  Append(Codes("aaaa"), &pattern);
  const auto index = BiFmIndex::Build(text).value();
  const auto empty = BiFmIndex::Build({}).value();
  for (const BiFmIndex* searched : {&index, &empty}) {
    const BidirectionalSearch searcher(searched);
    for (int32_t k = 0; k <= 3; ++k) {
      const auto scheme = SearchScheme::ForBudget(k);
      for (size_t s = 0; s < scheme.searches().size(); ++s) {
        std::vector<Occurrence> hits;
        searcher.ExecuteSearch(pattern, scheme, s, &hits, nullptr);
        EXPECT_TRUE(hits.empty()) << "n = " << searched->text_size()
                                  << " k = " << k << " search " << s;
      }
      EXPECT_TRUE(searcher.Search(pattern, k, nullptr).empty());
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
