#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>

#include "suffix/suffix_array.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::PeriodicDna;
using ::bwtk::testing::RandomDna;
using ::bwtk::testing::RandomDnaBiased;

// Checks structural validity: permutation of 0..n and sorted suffix order.
void ExpectValidSuffixArray(const std::vector<DnaCode>& text,
                            const std::vector<SaIndex>& sa) {
  ASSERT_EQ(sa.size(), text.size() + 1);
  std::vector<SaIndex> sorted(sa);
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<SaIndex>(i));
  }
  EXPECT_EQ(sa[0], static_cast<SaIndex>(text.size()));
  for (size_t i = 1; i + 1 < sa.size(); ++i) {
    // suffix(sa[i]) < suffix(sa[i+1]) lexicographically, sentinel smallest.
    // Distinct suffixes compare strictly; a proper prefix sorts first,
    // which matches the sentinel convention.
    EXPECT_TRUE(std::lexicographical_compare(
        text.begin() + sa[i], text.end(), text.begin() + sa[i + 1],
        text.end()))
        << "rank " << i;
  }
}

TEST(SuffixArrayTest, PaperExample) {
  // s = acagaca; suffixes sorted: $, a, aca$, acagaca$, agaca$, ca$,
  // cagaca$, gaca$ -> SA = 7, 6, 4, 0, 2, 5, 1, 3.
  const auto sa = BuildSuffixArrayDna(Codes("acagaca")).value();
  const std::vector<SaIndex> expected = {7, 6, 4, 0, 2, 5, 1, 3};
  EXPECT_EQ(sa, expected);
}

TEST(SuffixArrayTest, EmptyText) {
  const auto sa = BuildSuffixArrayDna({}).value();
  EXPECT_EQ(sa, std::vector<SaIndex>{0});
}

TEST(SuffixArrayTest, SingleCharacter) {
  const auto sa = BuildSuffixArrayDna(Codes("g")).value();
  const std::vector<SaIndex> expected = {1, 0};
  EXPECT_EQ(sa, expected);
}

TEST(SuffixArrayTest, AllSameCharacter) {
  const auto text = Codes("aaaaaaaaaa");
  const auto sa = BuildSuffixArrayDna(text).value();
  // Shorter suffixes sort first: n, n-1, ..., 0.
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], static_cast<SaIndex>(text.size() - i));
  }
}

TEST(SuffixArrayTest, RejectsOutOfAlphabetSymbol) {
  EXPECT_FALSE(BuildSuffixArray({0, 1, 7}, 4).ok());
}

TEST(SuffixArrayTest, MatchesNaiveOnFixedCases) {
  for (const char* text : {"abracadabra", "mississippi", "tcacg", "acagaca",
                           "gggggggc", "ctctctctct"}) {
    // Map arbitrary letters into the DNA code space first.
    std::vector<DnaCode> codes;
    for (const char* p = text; *p; ++p) {
      codes.push_back(static_cast<DnaCode>(*p & 3));
    }
    EXPECT_EQ(BuildSuffixArrayDna(codes).value(),
              BuildSuffixArrayNaiveDna(codes))
        << text;
  }
}

class SuffixArrayRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SuffixArrayRandomTest, MatchesNaiveOnUniformRandom) {
  Rng rng(1000 + GetParam());
  const size_t length = 1 + rng.NextBounded(400);
  const auto text = RandomDna(length, &rng);
  EXPECT_EQ(BuildSuffixArrayDna(text).value(),
            BuildSuffixArrayNaiveDna(text));
}

TEST_P(SuffixArrayRandomTest, MatchesNaiveOnBinaryAlphabet) {
  Rng rng(2000 + GetParam());
  const size_t length = 1 + rng.NextBounded(300);
  const auto text = RandomDnaBiased(length, 2, &rng);
  EXPECT_EQ(BuildSuffixArrayDna(text).value(),
            BuildSuffixArrayNaiveDna(text));
}

TEST_P(SuffixArrayRandomTest, MatchesNaiveOnPeriodicText) {
  Rng rng(3000 + GetParam());
  const size_t period = 1 + rng.NextBounded(8);
  const auto text = PeriodicDna(50 + rng.NextBounded(250), period, 0.05, &rng);
  EXPECT_EQ(BuildSuffixArrayDna(text).value(),
            BuildSuffixArrayNaiveDna(text));
}

TEST_P(SuffixArrayRandomTest, GenericOverloadMatchesNaiveOnLargeAlphabets) {
  // The uint32 overload (LcpIndex's) with alphabets of 2 up to 2^16 symbols.
  // Drawing from a few symbols spread over the alphabet keeps repeats, and
  // so recursion, in play while the bucket arrays span the whole alphabet.
  Rng rng(4000 + GetParam());
  const uint32_t alphabet = uint32_t{2} << (GetParam() % 16);
  std::vector<uint32_t> symbols(1 + rng.NextBounded(5));
  for (uint32_t& c : symbols) {
    c = static_cast<uint32_t>(rng.NextBounded(alphabet));
  }
  std::vector<uint32_t> text(rng.NextBounded(300));
  for (uint32_t& c : text) c = symbols[rng.NextBounded(symbols.size())];
  EXPECT_EQ(BuildSuffixArray(text, alphabet).value(),
            BuildSuffixArrayNaive(text))
      << "alphabet " << alphabet;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SuffixArrayRandomTest, ::testing::Range(0, 25));

// Checks both overloads against the oracle.
void ExpectBothOverloadsMatchNaive(const std::vector<DnaCode>& text,
                                   const std::string& label) {
  const std::vector<uint32_t> widened(text.begin(), text.end());
  const std::vector<SaIndex> expected = BuildSuffixArrayNaive(widened);
  EXPECT_EQ(BuildSuffixArrayDna(text).value(), expected) << label;
  EXPECT_EQ(BuildSuffixArray(widened, kDnaAlphabetSize).value(), expected)
      << label;
}

TEST(SuffixArrayTest, EveryTextUpToLengthThree) {
  for (size_t length = 0; length <= 3; ++length) {
    size_t count = 1;
    for (size_t i = 0; i < length; ++i) count *= kDnaAlphabetSize;
    for (size_t code = 0; code < count; ++code) {
      std::vector<DnaCode> text(length);
      size_t rest = code;
      for (DnaCode& c : text) {
        c = static_cast<DnaCode>(rest % kDnaAlphabetSize);
        rest /= kDnaAlphabetSize;
      }
      ExpectBothOverloadsMatchNaive(text, "code " + std::to_string(code));
    }
  }
}

TEST(SuffixArrayTest, FibonacciWordsRecurseDeeply) {
  // Each reduced string of a Fibonacci word is Fibonacci-like again, so
  // names repeat at every level: length 2584 recurses 7 levels deep.
  std::vector<DnaCode> prev = {1};
  std::vector<DnaCode> word = {0, 1};
  while (word.size() < 3000) {
    ExpectBothOverloadsMatchNaive(word,
                                  "fibonacci " + std::to_string(word.size()));
    std::vector<DnaCode> next = word;
    next.insert(next.end(), prev.begin(), prev.end());
    prev = std::move(word);
    word = std::move(next);
  }
  // Prefixes of other lengths end the text inside a repeat.
  for (size_t length = 1; length < 400; length += 7) {
    ExpectBothOverloadsMatchNaive(
        std::vector<DnaCode>(word.begin(), word.begin() + length),
        "fibonacci prefix " + std::to_string(length));
  }
}

TEST(SuffixArrayTest, ThueMorseWords) {
  for (size_t length : {1u, 2u, 5u, 16u, 63u, 64u, 100u, 511u, 1024u, 2049u}) {
    std::vector<DnaCode> text(length);
    for (size_t i = 0; i < length; ++i) {
      text[i] = static_cast<DnaCode>(std::popcount(i) & 1);
    }
    ExpectBothOverloadsMatchNaive(text,
                                  "thue-morse " + std::to_string(length));
  }
}

TEST(SuffixArrayTest, UnaryRunsWithAndWithoutATail) {
  for (size_t run : {1u, 2u, 3u, 4u, 7u, 64u, 500u}) {
    std::vector<DnaCode> text(run, 0);
    ExpectBothOverloadsMatchNaive(text, "a^" + std::to_string(run));
    text.push_back(1);
    ExpectBothOverloadsMatchNaive(text, "a^" + std::to_string(run) + "b");
  }
}

TEST(SuffixArrayTest, LargeInputIsValid) {
  Rng rng(99);
  const auto text = PeriodicDna(200000, 13, 0.02, &rng);
  const auto sa = BuildSuffixArrayDna(text).value();
  ExpectValidSuffixArray(text, sa);
}

TEST(SuffixArrayTest, InvertRoundTrips) {
  Rng rng(7);
  const auto text = RandomDna(123, &rng);
  const auto sa = BuildSuffixArrayDna(text).value();
  const auto rank = InvertSuffixArray(sa);
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(rank[sa[i]], static_cast<SaIndex>(i));
  }
}

}  // namespace
}  // namespace bwtk
