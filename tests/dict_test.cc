// The demultiplexer's building blocks: PatternSetTrie construction edge
// cases, and DemuxReads — its kaori-style best-hit/ambiguity semantics,
// checked against a brute-force scan of every barcode at every read offset.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dict/demux.h"
#include "dict/pattern_set_trie.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::RandomDna;

// The slot a full root-to-leaf walk of `pattern` ends in: its id, or -1.
int32_t LeafOf(const PatternSetTrie& trie,
               const std::vector<DnaCode>& pattern) {
  int32_t node = trie.root();
  for (const DnaCode c : pattern) {
    if (node < 0) return -1;
    node = trie.Child(node, c);
  }
  return node;
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
}

TEST(PatternSetTrieTest, SharedPrefixesShareNodes) {
  const auto trie =
      PatternSetTrie::Build({Codes("aaaa"), Codes("aaac"), Codes("aagt")})
          .value();
  // root, "a", "aa", "aaa", "aag": prefixes shared, leaves are slots.
  EXPECT_EQ(trie.node_count(), 5u);
}

TEST(PatternSetTrieTest, DuplicatesRejected) {
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
  EXPECT_EQ(LeafOf(trie, Codes("acgt")), 0);
  EXPECT_EQ(LeafOf(trie, Codes("tttt")), 1);
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

// The demux contract, spelled out as a scan of every barcode at every read
// offset: the fewest-mismatch count within k, the lowest barcode id reaching
// it, that barcode's smallest offset, and ambiguity when a second barcode
// reaches it too.
DemuxAssignment BruteForceDemux(
    const std::vector<std::vector<DnaCode>>& barcodes,
    const std::vector<DnaCode>& read, int32_t k) {
  DemuxAssignment best;
  std::set<int32_t> winners;
  for (size_t offset = 0; offset + barcodes[0].size() <= read.size();
       ++offset) {
    for (size_t id = 0; id < barcodes.size(); ++id) {
      int32_t mismatches = 0;
      for (size_t i = 0; i < barcodes[id].size(); ++i) {
        mismatches += barcodes[id][i] != read[offset + i] ? 1 : 0;
      }
      if (mismatches > k) continue;
      const int32_t barcode = static_cast<int32_t>(id);
      if (best.barcode < 0 || mismatches < best.mismatches ||
          (mismatches == best.mismatches && barcode < best.barcode)) {
        if (best.barcode < 0 || mismatches < best.mismatches) winners.clear();
        best.barcode = barcode;
        best.mismatches = mismatches;
        best.position = offset;
      }
      if (mismatches == best.mismatches) winners.insert(barcode);
    }
  }
  if (!winners.empty()) {
    best.outcome = winners.size() > 1 ? DemuxAssignment::Outcome::kAmbiguous
                                      : DemuxAssignment::Outcome::kAssigned;
  }
  return best;
}

TEST(DemuxTest, MatchesBruteForceAcrossBarcodeSetsAndBudgets) {
  Rng rng(71);
  size_t outcomes[3] = {0, 0, 0};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t length = 4 + rng.NextBounded(5);  // barcodes of 4..8 bp
    const int32_t k = trial % 3;
    // Barcodes grown from a few shared stems, so the trie shares prefixes
    // and near-identical barcodes make ambiguous reads likely.
    const size_t stem = 1 + rng.NextBounded(length - 1);
    std::vector<std::vector<DnaCode>> stems;
    for (int s = 0; s < 3; ++s) stems.push_back(RandomDna(stem, &rng));
    std::set<std::vector<DnaCode>> distinct;
    std::vector<std::vector<DnaCode>> barcodes;
    const size_t attempts = 2 + rng.NextBounded(24);  // duplicates skipped
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
      std::vector<DnaCode> barcode = stems[rng.NextBounded(stems.size())];
      const auto tail = RandomDna(length - stem, &rng);
      barcode.insert(barcode.end(), tail.begin(), tail.end());
      if (distinct.insert(barcode).second) barcodes.push_back(barcode);
    }
    const auto trie = PatternSetTrie::Build(barcodes).value();

    // Reads shorter than, equal to and longer than the barcodes; most carry
    // a barcode with up to k + 1 flips, some two of them.
    std::vector<std::vector<DnaCode>> reads;
    for (int r = 0; r < 40; ++r) {
      const size_t read_length =
          r % 8 == 0 ? length - 1 - rng.NextBounded(length - 1)
                     : (r % 8 == 1 ? length : length + rng.NextBounded(20));
      std::vector<DnaCode> read = RandomDna(read_length, &rng);
      for (int planted = 0; planted < 1 + r % 2; ++planted) {
        if (read.size() < length || r % 5 == 4) break;
        const auto& barcode = barcodes[rng.NextBounded(barcodes.size())];
        const size_t offset = rng.NextBounded(read.size() - length + 1);
        std::copy(barcode.begin(), barcode.end(), read.begin() + offset);
        for (int32_t f = rng.NextBounded(k + 2); f > 0; --f) {
          const size_t at = offset + rng.NextBounded(length);
          read[at] =
              static_cast<DnaCode>((read[at] + 1 + rng.NextBounded(3)) & 3);
        }
      }
      reads.push_back(std::move(read));
    }

    const auto result = DemuxReads(trie, reads, {.max_mismatches = k});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), reads.size());
    for (size_t r = 0; r < reads.size(); ++r) {
      const DemuxAssignment expected = BruteForceDemux(barcodes, reads[r], k);
      const DemuxAssignment& actual = (*result)[r];
      ++outcomes[static_cast<int>(expected.outcome)];
      EXPECT_EQ(actual.outcome, expected.outcome)
          << "trial " << trial << " read " << r;
      EXPECT_EQ(actual.mismatches, expected.mismatches)
          << "trial " << trial << " read " << r;
      EXPECT_EQ(actual.barcode, expected.barcode)
          << "trial " << trial << " read " << r;
      EXPECT_EQ(actual.position, expected.position)
          << "trial " << trial << " read " << r;
    }
  }
  // The generated reads exercise every outcome.
  for (const size_t seen : outcomes) EXPECT_GT(seen, 0u);
}

TEST(DemuxTest, RejectsNonDnaRead) {
  const auto barcodes =
      PatternSetTrie::Build(std::vector<std::string>{"acgt", "ttga"}).value();
  std::vector<DnaCode> read = Codes("ccacgtcc");
  read[5] = 4;  // e.g. an 'N' kept as a wildcard code
  const auto result = DemuxReads(barcodes, {Codes("acgt"), read});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("read 1"), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace bwtk
