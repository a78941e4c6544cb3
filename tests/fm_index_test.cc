#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bwt/fm_index.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::PeriodicDna;
using ::bwtk::testing::RandomDna;

std::vector<size_t> NaiveOccurrences(const std::vector<DnaCode>& text,
                                     const std::vector<DnaCode>& pattern) {
  std::vector<size_t> out;
  if (pattern.empty() || pattern.size() > text.size()) return out;
  for (size_t pos = 0; pos + pattern.size() <= text.size(); ++pos) {
    if (std::equal(pattern.begin(), pattern.end(), text.begin() + pos)) {
      out.push_back(pos);
    }
  }
  return out;
}

std::vector<size_t> Sorted(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FmIndexTest, PaperExampleCounts) {
  // Section III.A: r = aca occurs twice in s = acagaca.
  const auto index = FmIndex::Build(Codes("acagaca")).value();
  EXPECT_EQ(index.CountOccurrences(Codes("aca")), 2u);
  EXPECT_EQ(index.CountOccurrences(Codes("acag")), 1u);
  EXPECT_EQ(index.CountOccurrences(Codes("t")), 0u);
  EXPECT_EQ(index.CountOccurrences(Codes("a")), 4u);
}

TEST(FmIndexTest, PaperExampleLocate) {
  const auto index = FmIndex::Build(Codes("acagaca")).value();
  const auto pattern = Codes("aca");
  const auto range = index.MatchForward(pattern);
  EXPECT_EQ(Sorted(index.Locate(range, pattern.size())),
            (std::vector<size_t>{0, 4}));
}

TEST(FmIndexTest, ExtendStepByStepMatchesSearchSequence) {
  // The search sequence of Section III.A: processing a, c, a narrows the
  // range to exactly the two occurrences.
  const auto index = FmIndex::Build(Codes("acagaca")).value();
  FmIndex::Range range = index.WholeRange();
  EXPECT_EQ(range.count(), 8);
  range = index.Extend(range, CharToCode('a'));
  EXPECT_EQ(range.count(), 4);  // F_a = <a, [1, 4]>
  range = index.Extend(range, CharToCode('c'));
  EXPECT_EQ(range.count(), 2);  // <c, [1, 2]>
  range = index.Extend(range, CharToCode('a'));
  EXPECT_EQ(range.count(), 2);  // <a, [2, 3]>
}

TEST(FmIndexTest, EmptyPatternMatchesEverywhere) {
  const auto index = FmIndex::Build(Codes("acgt")).value();
  const auto range = index.MatchForward({});
  EXPECT_EQ(static_cast<size_t>(range.count()), index.rows());
}

struct FmParam {
  uint32_t checkpoint_rate;
  uint32_t sa_sample_rate;
};

class FmIndexParamTest : public ::testing::TestWithParam<FmParam> {};

TEST_P(FmIndexParamTest, CountAndLocateMatchNaive) {
  Rng rng(900 + GetParam().checkpoint_rate + GetParam().sa_sample_rate);
  const auto text = PeriodicDna(800, 9, 0.2, &rng);
  FmIndex::Options options;
  options.checkpoint_rate = GetParam().checkpoint_rate;
  options.sa_sample_rate = GetParam().sa_sample_rate;
  const auto index = FmIndex::Build(text, options).value();
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<DnaCode> pattern;
    if (trial % 2 == 0) {
      const size_t len = 1 + rng.NextBounded(15);
      const size_t pos = rng.NextBounded(text.size() - len);
      pattern.assign(text.begin() + pos, text.begin() + pos + len);
    } else {
      pattern = RandomDna(1 + rng.NextBounded(10), &rng);
    }
    const auto expected = NaiveOccurrences(text, pattern);
    EXPECT_EQ(index.CountOccurrences(pattern), expected.size());
    const auto range = index.MatchForward(pattern);
    EXPECT_EQ(Sorted(index.Locate(range, pattern.size())), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FmIndexParamTest,
    ::testing::Values(FmParam{32, 1}, FmParam{32, 4}, FmParam{64, 8},
                      FmParam{128, 16}, FmParam{256, 32}),
    [](const ::testing::TestParamInfo<FmParam>& info) {
      return "cp" + std::to_string(info.param.checkpoint_rate) + "_sa" +
             std::to_string(info.param.sa_sample_rate);
    });

TEST(FmIndexTest, ExtendAllAgreesWithExtend) {
  Rng rng(33);
  const auto text = PeriodicDna(400, 11, 0.2, &rng);
  const auto index = FmIndex::Build(text).value();
  // Walk random paths comparing the fused extension with four single ones.
  for (int trial = 0; trial < 50; ++trial) {
    FmIndex::Range range = index.WholeRange();
    for (int step = 0; step < 12 && !range.empty(); ++step) {
      FmIndex::Range all[kDnaAlphabetSize];
      index.ExtendAll(range, all);
      for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
        ASSERT_EQ(all[c], index.Extend(range, c)) << "step " << step;
      }
      range = all[rng.NextBounded(4)];
    }
  }
}

TEST(FmIndexTest, SuffixArrayValuesAreAPermutation) {
  Rng rng(31);
  const auto text = RandomDna(257, &rng);
  const auto index = FmIndex::Build(text).value();
  std::vector<size_t> values;
  for (size_t row = 0; row < index.rows(); ++row) {
    values.push_back(index.SuffixArrayValue(static_cast<SaIndex>(row)));
  }
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
}

TEST(FmIndexTest, RejectsZeroSampleRate) {
  FmIndex::Options options;
  options.sa_sample_rate = 0;
  EXPECT_FALSE(FmIndex::Build(Codes("acgt"), options).ok());
}

TEST(FmIndexTest, SerializationRoundTrip) {
  Rng rng(53);
  const auto text = RandomDna(511, &rng);
  const auto index = FmIndex::Build(text).value();
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  EXPECT_EQ(loaded.text_size(), index.text_size());
  for (int trial = 0; trial < 30; ++trial) {
    const size_t len = 1 + rng.NextBounded(12);
    const size_t pos = rng.NextBounded(text.size() - len);
    const std::vector<DnaCode> pattern(text.begin() + pos,
                                       text.begin() + pos + len);
    EXPECT_EQ(loaded.CountOccurrences(pattern),
              index.CountOccurrences(pattern));
    const auto range = loaded.MatchForward(pattern);
    EXPECT_EQ(Sorted(loaded.Locate(range, len)),
              Sorted(index.Locate(index.MatchForward(pattern), len)));
  }
}

TEST(FmIndexTest, BuiltAndLoadedIndexesReportEqualMemory) {
  // 2^14 / 8 + 1 = 2049 samples, one past a power of two: a sample vector
  // grown one push at a time would hold 4096 slots, and MemoryUsage counts
  // the vector's capacity.
  Rng rng(67);
  const auto index =
      FmIndex::Build(RandomDna(size_t{1} << 14, &rng), {.sa_sample_rate = 8})
          .value();
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  EXPECT_EQ(index.MemoryUsage(), loaded.MemoryUsage());
}

TEST(FmIndexTest, LoadRejectsGarbage) {
  std::stringstream buffer("this is not an index file at all");
  EXPECT_EQ(FmIndex::Load(buffer).status().code(), StatusCode::kCorruption);
}

TEST(FmIndexTest, LoadRejectsTruncation) {
  const auto index = FmIndex::Build(Codes("acgtacgtacgt")).value();
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_FALSE(FmIndex::Load(truncated).ok());
}

TEST(FmIndexTest, LoadRejectsBitFlip) {
  const auto index = FmIndex::Build(Codes("acgtacgtacgtacgtacgt")).value();
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  // Offset 50 lies inside the first packed BWT word (after the 40-byte
  // header and the 8-byte vector length), which the checksum covers.
  ASSERT_GT(bytes.size(), 56u);
  bytes[50] ^= 0x40;
  std::stringstream corrupted(bytes);
  EXPECT_FALSE(FmIndex::Load(corrupted).ok());
}

TEST(FmIndexTest, MemoryUsageScalesWithText) {
  Rng rng(61);
  const auto small = FmIndex::Build(RandomDna(1000, &rng)).value();
  const auto large = FmIndex::Build(RandomDna(10000, &rng)).value();
  EXPECT_GT(large.MemoryUsage(), small.MemoryUsage());
  // 2-bit BWT + 1/4-byte checkpoints + samples: far below 1 byte per base
  // at default rates... but allow generous slack for small inputs.
  EXPECT_LT(large.MemoryUsage(), 10000u * 4);
}

}  // namespace
}  // namespace bwtk
