#include "bwt/prefix_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bidir/bi_fm_index.h"
#include "bwt/fm_index.h"
#include "bwt/serialize.h"
#include "obs/metrics.h"
#include "search/algorithm_a.h"
#include "search/kerror_search.h"
#include "search/stree_search.h"
#include "search/tau_heuristic.h"
#include "test_util.h"
#include "util/random.h"

namespace bwtk {
namespace {

using ::bwtk::testing::Codes;
using ::bwtk::testing::PeriodicDna;
using ::bwtk::testing::RandomDna;
using ::bwtk::testing::SampleWithFlips;

FmIndex BuildIndex(const std::vector<DnaCode>& text, uint32_t prefix_q,
                   OccTable::RankKernel kernel = OccTable::RankKernel::kAuto) {
  FmIndex::Options options;
  options.prefix_table_q = prefix_q;
  options.rank_kernel = kernel;
  auto built = FmIndex::Build(text, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every q-gram's table entry must equal what q Extend steps produce —
// including the all-zero entries of absent q-grams (Lookup returns false
// exactly when the stepped range is empty).
TEST(PrefixTableTest, ExhaustiveQ3AgreesWithStepping) {
  Rng rng(71);
  const auto text = PeriodicDna(700, 13, 0.25, &rng);
  const auto index = BuildIndex(text, 3);
  ASSERT_NE(index.prefix_table(), nullptr);
  const PrefixIntervalTable& table = *index.prefix_table();
  std::array<DnaCode, 3> gram;
  for (uint64_t key = 0; key < PrefixIntervalTable::KeyCount(3); ++key) {
    for (uint32_t i = 0; i < 3; ++i) {
      gram[i] = static_cast<DnaCode>((key >> (2 * (2 - i))) & 3);
    }
    ASSERT_EQ(PrefixIntervalTable::PackKey(gram.data(), 3), key);
    FmIndex::Range stepped = index.WholeRange();
    for (const DnaCode c : gram) stepped = index.Extend(stepped, c);
    SaIndex lo = 0;
    SaIndex hi = 0;
    const bool hit = table.Lookup(key, &lo, &hi);
    EXPECT_EQ(hit, !stepped.empty()) << "key " << key;
    if (hit) {
      EXPECT_EQ(lo, stepped.lo) << "key " << key;
      EXPECT_EQ(hi, stepped.hi) << "key " << key;
    }
  }
}

// The order the engines' seeded walks were built on: the depth-first order
// of a left-to-right descent that tries the gram's own symbol first and the
// others in ascending order, spending at most `budget` substitutions.
void ReferenceVariants(const std::vector<DnaCode>& gram, int32_t budget,
                       uint32_t pos, uint64_t key,
                       PrefixIntervalTable::Variant* v,
                       std::vector<PrefixIntervalTable::Variant>* out) {
  if (pos == gram.size()) {
    v->key = key;
    out->push_back(*v);
    return;
  }
  ReferenceVariants(gram, budget, pos + 1, (key << 2) | gram[pos], v, out);
  if (budget == 0) return;
  for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
    if (c == gram[pos]) continue;
    v->subs[v->mismatches] = {static_cast<uint16_t>(pos), c};
    ++v->mismatches;
    ReferenceVariants(gram, budget - 1, pos + 1, (key << 2) | c, v, out);
    --v->mismatches;
  }
}

TEST(PrefixTableTest, VariantEnumerationIsCompleteAndOrdered) {
  Rng rng(72);
  for (const uint32_t q : {1u, 2u, 5u, 11u, PrefixIntervalTable::kMaxQ}) {
    const auto gram = q == 5 ? Codes("acgta") : RandomDna(q, &rng);
    for (int32_t budget = 0;
         budget <= PrefixIntervalTable::kMaxSeedMismatches; ++budget) {
      SCOPED_TRACE(::testing::Message() << "q " << q << ", budget " << budget);
      std::vector<PrefixIntervalTable::Variant> variants;
      PrefixIntervalTable::ForEachVariant(
          gram.data(), q, budget,
          [&](const PrefixIntervalTable::Variant& v) {
            variants.push_back(v);
          });
      // sum_{j<=budget} C(q,j) * 3^j.
      const size_t pairs = q * (q - 1) / 2;
      const size_t expected[] = {1, 1 + 3 * q, 1 + 3 * q + 9 * pairs};
      ASSERT_EQ(variants.size(), expected[budget]);
      std::vector<PrefixIntervalTable::Variant> reference;
      PrefixIntervalTable::Variant scratch;
      ReferenceVariants(gram, budget, 0, 0, &scratch, &reference);
      ASSERT_EQ(reference.size(), variants.size());
      // The exact gram comes first.
      EXPECT_EQ(variants[0].key, PrefixIntervalTable::PackKey(gram.data(), q));
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < variants.size(); ++i) {
        const PrefixIntervalTable::Variant& v = variants[i];
        ASSERT_EQ(v.key, reference[i].key) << "variant " << i;
        ASSERT_EQ(v.mismatches, reference[i].mismatches) << "variant " << i;
        EXPECT_LE(v.mismatches, budget);
        EXPECT_EQ(v.mismatches == 0, i == 0);
        for (int32_t s = 0; s < v.mismatches; ++s) {
          EXPECT_EQ(v.subs[s], reference[i].subs[s]) << "variant " << i;
          // Substitutions are reported in position order, and substitute.
          if (s > 0) {
            EXPECT_LT(v.subs[s - 1].first, v.subs[s].first);
          }
          EXPECT_NE(v.subs[s].second, gram[v.subs[s].first]);
        }
        EXPECT_EQ(v.reverse_key, BiFmIndex::ReverseKey(v.key, q))
            << "variant " << i;
        keys.push_back(v.key);
      }
      std::sort(keys.begin(), keys.end());
      EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
    }
  }
}

TEST(PrefixTableTest, BuildRejectsOversizedQ) {
  FmIndex::Options options;
  options.prefix_table_q = PrefixIntervalTable::kMaxQ + 1;
  const auto built = FmIndex::Build(Codes("acgtacgt"), options);
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrefixTableTest, ExplicitAvx2KernelRejectedWhenUnavailable) {
  if (OccTable::Avx2Available()) GTEST_SKIP() << "host supports AVX2";
  FmIndex::Options options;
  options.rank_kernel = OccTable::RankKernel::kAvx2;
  EXPECT_EQ(FmIndex::Build(Codes("acgtacgt"), options).status().code(),
            StatusCode::kInvalidArgument);
}

// The acceptance-criteria identity test: 1k random reads, k in {0..5},
// q = 0 vs q = 12 must produce byte-identical match sets from both engines,
// on the portable kernel and (when the host has it) the AVX2 kernel.
TEST(PrefixTableTest, RandomizedIdentityQ12VsQ0BothKernels) {
  Rng rng(4242);
  const auto text = PeriodicDna(16384, 257, 0.12, &rng);

  // Reads: mostly planted with flips (so matches exist), some uniform noise.
  constexpr int kReads = 1000;
  std::vector<std::vector<DnaCode>> reads;
  std::vector<int32_t> budgets;
  reads.reserve(kReads);
  for (int i = 0; i < kReads; ++i) {
    const int32_t k = i % 6;
    const size_t len = 20 + rng.NextBounded(9);  // 20..28
    if (i % 5 == 4) {
      reads.push_back(RandomDna(len, &rng));
    } else {
      const size_t pos = rng.NextBounded(text.size() - len);
      reads.push_back(SampleWithFlips(text, pos, len, k, &rng));
    }
    budgets.push_back(k);
  }

  // Reference: q = 0 on the explicit portable kernel.
  const auto reference = BuildIndex(text, 0, OccTable::RankKernel::kWord64);
  const STreeSearch ref_stree(&reference);
  const AlgorithmA ref_alg(&reference);
  std::vector<std::vector<Occurrence>> want_stree(kReads);
  std::vector<std::vector<Occurrence>> want_alg(kReads);
  for (int i = 0; i < kReads; ++i) {
    want_stree[i] = ref_stree.Search(reads[i], budgets[i]);
    want_alg[i] = ref_alg.Search(reads[i], budgets[i]);
    ASSERT_EQ(want_stree[i], want_alg[i]) << "read " << i;
  }

  std::vector<OccTable::RankKernel> kernels = {OccTable::RankKernel::kWord64};
  if (OccTable::Avx2Available()) {
    kernels.push_back(OccTable::RankKernel::kAvx2);
  }
  for (const OccTable::RankKernel kernel : kernels) {
    const auto index = BuildIndex(text, 12, kernel);
    ASSERT_EQ(index.prefix_table_q(), 12u);
    const STreeSearch stree(&index);
    const AlgorithmA alg(&index);
    for (int i = 0; i < kReads; ++i) {
      EXPECT_EQ(stree.Search(reads[i], budgets[i]), want_stree[i])
          << "stree read " << i << " kernel "
          << OccTable::KernelName(kernel);
      EXPECT_EQ(alg.Search(reads[i], budgets[i]), want_alg[i])
          << "algorithm_a read " << i << " kernel "
          << OccTable::KernelName(kernel);
    }
  }
}

TEST(PrefixTableTest, KErrorSearchIdentityAtKZero) {
  Rng rng(77);
  const auto text = PeriodicDna(4096, 33, 0.2, &rng);
  const auto plain = BuildIndex(text, 0);
  const auto tabled = BuildIndex(text, 6);
  const KErrorSearch plain_search(&plain);
  const KErrorSearch tabled_search(&tabled);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = 8 + rng.NextBounded(12);
    std::vector<DnaCode> pattern;
    if (trial % 3 == 0) {
      pattern = RandomDna(len, &rng);
    } else {
      const size_t pos = rng.NextBounded(text.size() - len);
      pattern.assign(text.begin() + pos, text.begin() + pos + len);
    }
    EXPECT_EQ(tabled_search.Search(pattern, 0), plain_search.Search(pattern, 0))
        << "trial " << trial;
    // k >= 1 must ignore the table (the shortcut is only sound at k == 0);
    // results still identical because that path never engages.
    EXPECT_EQ(tabled_search.Search(pattern, 1), plain_search.Search(pattern, 1))
        << "trial " << trial;
  }
}

TEST(PrefixTableTest, ComputeTauIdentity) {
  Rng rng(78);
  const auto text = PeriodicDna(8192, 65, 0.15, &rng);
  const auto plain = BuildIndex(text, 0);
  const auto tabled = BuildIndex(text, 7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t len = 5 + rng.NextBounded(60);  // straddles q = 7
    const size_t pos = rng.NextBounded(text.size() - len);
    std::vector<DnaCode> pattern(text.begin() + pos, text.begin() + pos + len);
    for (size_t f = 0; f < len / 10; ++f) {
      const size_t where = rng.NextBounded(len);
      pattern[where] = static_cast<DnaCode>((pattern[where] + 1) & 3);
    }
    EXPECT_EQ(ComputeTau(tabled, pattern), ComputeTau(plain, pattern))
        << "trial " << trial;
  }
}

TEST(PrefixTableTest, MatchForwardUsesTableAndCountsHits) {
  Rng rng(79);
  const auto text = PeriodicDna(2048, 19, 0.2, &rng);
  const auto index = BuildIndex(text, 8);
  const auto plain = BuildIndex(text, 0);
  const std::vector<DnaCode> present(text.begin(), text.begin() + 30);
  const auto expected_range = plain.MatchForward(present);
  const auto before = obs::MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(index.MatchForward(present), expected_range);
  const auto delta =
      obs::Diff(obs::MetricsRegistry::Instance().Snapshot(), before);
  EXPECT_EQ(delta.counters[obs::kCounterPrefixTableHits], 1u);
  EXPECT_EQ(delta.counters[obs::kCounterPrefixTableSkippedSteps], 8u);
  // The skipped steps must be missing from the extend tally.
  EXPECT_EQ(delta.counters[obs::kCounterExtendCalls], present.size() - 8);

  // A read whose q-prefix is absent falls back to stepping from scratch and
  // returns the byte-identical (empty) range.
  std::vector<DnaCode> absent = present;
  for (size_t i = 0; i < 8; ++i) {
    // Perturb inside the prefix until it is genuinely absent.
    absent[i] = static_cast<DnaCode>((absent[i] + 1 + rng.NextBounded(3)) & 3);
  }
  if (plain.CountOccurrences(absent) == 0) {
    EXPECT_EQ(index.MatchForward(absent), plain.MatchForward(absent));
  }
}

TEST(PrefixTableTest, SerializationRoundTripWithoutTable) {
  Rng rng(80);
  const auto text = RandomDna(600, &rng);
  const auto index = BuildIndex(text, 0);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  EXPECT_EQ(loaded.prefix_table(), nullptr);
  EXPECT_EQ(loaded.prefix_table_q(), 0u);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t len = 1 + rng.NextBounded(10);
    const size_t pos = rng.NextBounded(text.size() - len);
    const std::vector<DnaCode> pattern(text.begin() + pos,
                                       text.begin() + pos + len);
    EXPECT_EQ(loaded.CountOccurrences(pattern),
              index.CountOccurrences(pattern));
  }
}

TEST(PrefixTableTest, SerializationRoundTripWithTable) {
  Rng rng(81);
  const auto text = PeriodicDna(900, 17, 0.2, &rng);
  const auto index = BuildIndex(text, 4);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  ASSERT_NE(loaded.prefix_table(), nullptr);
  EXPECT_EQ(loaded.prefix_table_q(), 4u);
  EXPECT_EQ(loaded.options().prefix_table_q, 4u);
  EXPECT_EQ(loaded.prefix_table()->entries(),
            index.prefix_table()->entries());
  const STreeSearch original_search(&index);
  const STreeSearch loaded_search(&loaded);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t len = 6 + rng.NextBounded(12);
    const size_t pos = rng.NextBounded(text.size() - len);
    const auto pattern = SampleWithFlips(text, pos, len, 1, &rng);
    EXPECT_EQ(loaded_search.Search(pattern, 1),
              original_search.Search(pattern, 1));
  }
}

TEST(PrefixTableTest, LoadRejectsFutureVersion) {
  const auto index = BuildIndex(Codes("acgtacgtacgtacgt"), 0);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  // Version field sits right after the 4-byte magic.
  const uint32_t future = FmIndexFormat::kVersion + 1;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  std::stringstream patched(bytes);
  const auto status = FmIndex::Load(patched).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(PrefixTableTest, LoadsVersion1FilesWithoutTable) {
  const auto text = Codes("acgtacgtacgtacgtacgtacgt");
  const auto index = BuildIndex(text, 0);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  // A v1 file is a v2 q=0 file minus the 4-byte prefix-q field (which sits
  // just before the trailing 8-byte checksum), with the version patched
  // down. The checksum covers only the BWT words, so it stays valid.
  ASSERT_GE(bytes.size(), 12u);
  bytes.erase(bytes.size() - 12, 4);
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  std::stringstream v1_stream(bytes);
  const auto loaded = FmIndex::Load(v1_stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().prefix_table(), nullptr);
  EXPECT_EQ(loaded.value().CountOccurrences(Codes("acgt")),
            index.CountOccurrences(Codes("acgt")));
}

TEST(PrefixTableTest, LoadRejectsTruncationInsideTableEntries) {
  Rng rng(82);
  const auto index = BuildIndex(RandomDna(500, &rng), 4);
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const std::string full = buffer.str();
  // Cut inside the 4^4-entry table payload (2 KiB before the end removes
  // the checksum and a chunk of entries).
  std::stringstream truncated(full.substr(0, full.size() - 600));
  const auto status = FmIndex::Load(truncated).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
}

TEST(PrefixTableTest, FromPartsValidatesGeometry) {
  EXPECT_EQ(PrefixIntervalTable::FromParts(3, std::vector<uint64_t>(63), 2)
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(PrefixIntervalTable::FromParts(0, {}, 2).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(PrefixIntervalTable::FromParts(PrefixIntervalTable::kMaxQ + 1,
                                           std::vector<uint64_t>(4), 2)
                .status()
                .code(),
            StatusCode::kCorruption);
  // A text shorter than q has no q-gram, so an all-empty table is whole.
  EXPECT_TRUE(
      PrefixIntervalTable::FromParts(3, std::vector<uint64_t>(64), 2).ok());
}

// Saved bytes of a q = 3 index with the table entry of `key` replaced by
// `edit(old entry)`. Entry i sits 8 * (4^3 - i) bytes before the trailing
// 8-byte checksum, which covers only the BWT words.
template <typename Edit>
std::string WithEditedEntry(const FmIndex& index, uint64_t key, Edit edit) {
  std::stringstream buffer;
  EXPECT_TRUE(index.Save(buffer).ok());
  std::string bytes = buffer.str();
  const size_t offset =
      bytes.size() - 8 - 8 * (PrefixIntervalTable::KeyCount(3) - key);
  uint64_t entry = 0;
  std::memcpy(&entry, bytes.data() + offset, sizeof(entry));
  EXPECT_EQ(entry, index.prefix_table()->entries()[key]);
  entry = edit(entry);
  std::memcpy(bytes.data() + offset, &entry, sizeof(entry));
  return bytes;
}

TEST(PrefixTableTest, LoadRejectsEntryOutsideTheRows) {
  Rng rng(85);
  const auto index = BuildIndex(RandomDna(500, &rng), 3);
  // Unchecked, the first lookup of this q-gram would index the rank table
  // at row 4e9.
  std::stringstream patched(WithEditedEntry(index, 5, [](uint64_t) {
    return (uint64_t{4000000000} << 32) | uint64_t{4000000100};
  }));
  const auto status = FmIndex::Load(patched).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(PrefixTableTest, LoadRejectsEntryWhoseWidthChanged) {
  Rng rng(86);
  const auto index = BuildIndex(RandomDna(500, &rng), 3);
  // Widen one range by a row: it stays inside the rows, but the widths no
  // longer sum to the text's 498 windows of length 3.
  uint64_t key = 0;
  SaIndex lo = 0, hi = 0;
  while (!index.prefix_table()->Lookup(key, &lo, &hi) ||
         static_cast<size_t>(hi) == index.rows()) {
    ++key;
  }
  std::stringstream patched(
      WithEditedEntry(index, key, [](uint64_t entry) { return entry + 1; }));
  const auto status = FmIndex::Load(patched).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

// Patterns shorter than q cannot use the table but must still work.
TEST(PrefixTableTest, ShortPatternsBypassTable) {
  Rng rng(83);
  const auto text = PeriodicDna(2000, 23, 0.2, &rng);
  const auto plain = BuildIndex(text, 0);
  const auto tabled = BuildIndex(text, 10);
  const STreeSearch plain_search(&plain);
  const STreeSearch tabled_search(&tabled);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = 1 + rng.NextBounded(9);  // always < q = 10
    const size_t pos = rng.NextBounded(text.size() - len);
    const std::vector<DnaCode> pattern(text.begin() + pos,
                                       text.begin() + pos + len);
    for (int32_t k = 0; k <= 2; ++k) {
      EXPECT_EQ(tabled_search.Search(pattern, k),
                plain_search.Search(pattern, k));
    }
    EXPECT_EQ(tabled.MatchForward(pattern), plain.MatchForward(pattern));
  }
}

// Budgets beyond kMaxSeedMismatches must fall back to the stepped walk
// (covered implicitly by the randomized test, asserted directly here).
TEST(PrefixTableTest, LargeBudgetFallsBackToRootEnumeration) {
  Rng rng(84);
  const auto text = PeriodicDna(4096, 41, 0.15, &rng);
  const auto plain = BuildIndex(text, 0);
  const auto tabled = BuildIndex(text, 6);
  const STreeSearch plain_search(&plain);
  const STreeSearch tabled_search(&tabled);
  const AlgorithmA plain_alg(&plain);
  const AlgorithmA tabled_alg(&tabled);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t len = 18 + rng.NextBounded(8);
    const size_t pos = rng.NextBounded(text.size() - len);
    const auto pattern = SampleWithFlips(text, pos, len, 4, &rng);
    const int32_t k = PrefixIntervalTable::kMaxSeedMismatches + 1 +
                      static_cast<int32_t>(rng.NextBounded(2));
    EXPECT_EQ(tabled_search.Search(pattern, k), plain_search.Search(pattern, k));
    EXPECT_EQ(tabled_alg.Search(pattern, k), plain_alg.Search(pattern, k));
  }
}

// The index_tool upgrade path: a table added to a table-less index (as a
// version-1 load is) answers exactly as before, persists through Save/Load,
// and can be stripped again.
TEST(RebuildPrefixTableTest, UpgradeIsResultIdenticalAndPersists) {
  Rng rng(107);
  const auto text = PeriodicDna(2500, 37, 0.3, &rng);
  auto index = BuildIndex(text, 0);  // no table, like a v1 load
  ASSERT_EQ(index.prefix_table_q(), 0u);
  // Half planted with up to two flips, so hits exist; half random.
  std::vector<std::vector<DnaCode>> patterns;
  for (int i = 0; i < 32; ++i) {
    patterns.push_back(
        i % 2 == 0
            ? SampleWithFlips(text, rng.NextBounded(text.size() - 12), 12, 2,
                              &rng)
            : RandomDna(12, &rng));
  }
  const auto search_all = [&patterns](const FmIndex& searched) {
    const STreeSearch search(&searched);
    std::vector<std::vector<Occurrence>> hits;
    for (const auto& pattern : patterns) {
      hits.push_back(search.Search(pattern, 2));
    }
    return hits;
  };
  const auto before = search_all(index);

  ASSERT_TRUE(index.RebuildPrefixTable(5).ok());
  EXPECT_EQ(index.prefix_table_q(), 5u);
  EXPECT_EQ(index.options().prefix_table_q, 5u);
  EXPECT_EQ(search_all(index), before);

  // The rebuilt table round-trips through serialization (format v2).
  std::stringstream buffer;
  ASSERT_TRUE(index.Save(buffer).ok());
  const auto loaded = FmIndex::Load(buffer).value();
  EXPECT_EQ(loaded.prefix_table_q(), 5u);
  EXPECT_EQ(search_all(loaded), before);

  // q = 0 strips the table; out-of-range q is rejected.
  ASSERT_TRUE(index.RebuildPrefixTable(0).ok());
  EXPECT_EQ(index.prefix_table_q(), 0u);
  EXPECT_EQ(search_all(index), before);
  EXPECT_EQ(index.RebuildPrefixTable(PrefixIntervalTable::kMaxQ + 1).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bwtk
