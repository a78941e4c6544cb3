// Precomputed FM-ranges for every DNA q-gram — the "ftab" of production
// FM-indexes (BWA/Bowtie), adapted to the paper's search() primitive.
//
// One backward-search descent of Definition 1 costs two rank operations per
// character. But the result of the first q steps depends only on the q
// characters consumed, and over the 4-letter DNA alphabet there are only 4^q
// such prefixes — few enough to precompute. The table stores, for every
// length-q string w, the pair <w, [α, β)> that q search() steps from the
// root would produce, so a descent whose first q characters are known in
// advance replaces q Extend calls (2q rank operations) with one load.
//
// Correctness is by construction: entries are produced by running the real
// search() steps over the same index at build time (a breadth-first interval
// expansion that prunes empty ranges), so a table hit is byte-identical to
// stepping. Consumers (stree_search, algorithm_a, kerror_search,
// FmIndex::MatchForward, ComputeTau) only take the shortcut when the first q
// characters of the descent are fully determined; see each call site for the
// engine-specific argument.
//
// Space: 8 bytes per entry, 4^q entries — 8 MB at q = 10, 128 MB at q = 12.
// A BiFmIndex picks q from the text length and tables both halves (see
// BiFmIndex::SeedTableQ). A forward-only FmIndex has no table unless its
// caller asks through FmIndex::Options::prefix_table_q (0 = no table, the
// default) or FmIndex::RebuildPrefixTable; `index_tool upgrade` asks for 12.

#ifndef BWTK_BWT_PREFIX_TABLE_H_
#define BWTK_BWT_PREFIX_TABLE_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/occ_table.h"
#include "suffix/suffix_array.h"
#include "util/status.h"

namespace bwtk {

/// FM-range for every DNA q-gram. Immutable after Build()/FromParts(); safe
/// for concurrent readers (the same contract as OccTable).
class PrefixIntervalTable {
 public:
  /// Hard ceiling on q: 4^13 entries is 512 MB, already past any sensible
  /// space/time trade-off for this codebase's genome sizes.
  static constexpr uint32_t kMaxQ = 13;

  /// Largest mismatch budget for which the k-mismatch engines seed their
  /// enumeration from the table (see ForEachVariant). The number of length-q
  /// variants within Hamming distance j of a fixed q-gram is
  /// sum_{i<=j} C(q,i)·3^i — 703 at q = 12, j = 2, but 2.7 M at j = 5. Past
  /// j = 2 the lookups (each a potential DRAM miss into a 4^q-entry array)
  /// cost more than the cache-resident tree walk they replace.
  static constexpr int32_t kMaxSeedMismatches = 2;

  /// Number of table entries for a given q.
  static constexpr uint64_t KeyCount(uint32_t q) { return uint64_t{1} << (2 * q); }

  PrefixIntervalTable() = default;

  /// Builds the table by breadth-first interval expansion over the index
  /// (O(q·n) rank work, parallelized across the 4 top-level subtrees, which
  /// own disjoint key blocks). `first_row` is FmIndex's C array (5 entries);
  /// `occ` supplies the rank structure. Requires 1 <= q <= kMaxQ.
  static Result<PrefixIntervalTable> Build(const OccTable& occ,
                                           const SaIndex* first_row,
                                           uint32_t q);

  /// Reassembles a table from serialized parts (used by the FM-index loader;
  /// see bwt/serialize.cc) for an index over `text_size` symbols. Returns
  /// Corruption unless the geometry fits q, every entry is empty or a
  /// non-empty row range inside the index's text_size + 1 rows, and the
  /// widths sum to the number of length-q windows, max(0, n - q + 1).
  /// Corruption that keeps every bound and the sum passes; only rebuilding
  /// the table would find it.
  static Result<PrefixIntervalTable> FromParts(uint32_t q,
                                               std::vector<uint64_t> entries,
                                               size_t text_size);

  uint32_t q() const { return q_; }
  size_t size() const { return entries_.size(); }

  /// Packs a q-gram into its table key. Big-endian: the FIRST character
  /// lands in the most significant 2 bits, so the 4^(q-d) extensions of any
  /// length-d prefix occupy one contiguous key block — the property the
  /// parallel subtree build and the rolling-window key update rely on.
  static uint64_t PackKey(const DnaCode* gram, uint32_t q) {
    uint64_t key = 0;
    for (uint32_t i = 0; i < q; ++i) key = (key << 2) | gram[i];
    return key;
  }

  /// The FM-range q search() steps from the root would produce for the
  /// q-gram `key`. Returns false (and an empty range) when the q-gram does
  /// not occur in the text. One array load.
  bool Lookup(uint64_t key, SaIndex* lo, SaIndex* hi) const {
    const uint64_t entry = entries_[key];
    *lo = static_cast<SaIndex>(entry >> 32);
    *hi = static_cast<SaIndex>(static_cast<uint32_t>(entry));
    return *lo < *hi;
  }

  /// Hints the cache that `key`'s entry is about to be loaded. Lookups are
  /// single loads into a table far larger than cache, so callers that know
  /// their next keys (ComputeTau's rolling window, a scheme walk's seed
  /// variants) hide the DRAM latency behind their current work.
  /// Force-inlined for the reason given at OccTable::Prefetch: otherwise
  /// gcc may delete the calls.
  [[gnu::always_inline]] void Prefetch(uint64_t key) const {
    __builtin_prefetch(entries_.data() + key);
  }

  /// One length-q string within Hamming distance kMaxSeedMismatches of the
  /// enumerated q-gram: its table key, the key of the same string read
  /// right to left (what BiFmIndex's reverse table is indexed by; equal to
  /// BiFmIndex::ReverseKey(key, q)), and the substitutions that produced it
  /// (pattern position, substituted symbol), in position order.
  struct Variant {
    uint64_t key = 0;
    uint64_t reverse_key = 0;
    int32_t mismatches = 0;
    std::array<std::pair<uint16_t, DnaCode>, kMaxSeedMismatches> subs{};
  };

  /// Invokes `fn(const Variant&)` for every length-q string within Hamming
  /// distance `budget` of gram[0..q) — the complete set of depth-q S-tree
  /// states a k-mismatch enumeration (k = budget) can reach. Seeding a
  /// search from the non-empty variants of a table at q is therefore
  /// result-identical to enumerating the first q levels with search()
  /// steps. Requires 1 <= q <= kMaxQ and 0 <= budget <= kMaxSeedMismatches.
  ///
  /// The order is part of the contract (a seeded walk's DFS order, and so
  /// Algorithm A's DAG memo and M-tree counters, follow it): the gram
  /// itself; then, for the first substitution's position i from q-1 down to
  /// 0 and its symbol in ascending order, the one-substitution variant,
  /// followed under budget 2 by its second substitutions at positions from
  /// q-1 down to i+1, symbols ascending. This is the depth-first order of
  /// a left-to-right descent that tries the pattern's symbol first. Each
  /// variant's keys are the gram's two keys with the substituted digits
  /// flipped: symbol c at position i is digit q-1-i of `key` and digit i of
  /// `reverse_key`.
  template <typename Fn>
  static void ForEachVariant(const DnaCode* gram, uint32_t q, int32_t budget,
                             Fn&& fn) {
    // Written out for one and two substitutions.
    static_assert(kMaxSeedMismatches == 2);
    Variant v;
    v.key = PackKey(gram, q);
    for (uint32_t i = 0; i < q; ++i) {
      v.reverse_key |= uint64_t{gram[i]} << (2 * i);
    }
    fn(static_cast<const Variant&>(v));
    if (budget == 0) return;
    const uint64_t key = v.key;
    const uint64_t reverse_key = v.reverse_key;
    for (uint32_t i = q; i-- > 0;) {
      for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
        if (c == gram[i]) continue;
        const uint64_t flip = gram[i] ^ c;
        const uint64_t key1 = key ^ (flip << (2 * (q - 1 - i)));
        const uint64_t reverse_key1 = reverse_key ^ (flip << (2 * i));
        v.key = key1;
        v.reverse_key = reverse_key1;
        v.mismatches = 1;
        v.subs[0] = {static_cast<uint16_t>(i), c};
        fn(static_cast<const Variant&>(v));
        if (budget == 1) continue;
        v.mismatches = 2;
        for (uint32_t j = q; j-- > i + 1;) {
          for (DnaCode d = 0; d < kDnaAlphabetSize; ++d) {
            if (d == gram[j]) continue;
            const uint64_t flip2 = gram[j] ^ d;
            v.key = key1 ^ (flip2 << (2 * (q - 1 - j)));
            v.reverse_key = reverse_key1 ^ (flip2 << (2 * j));
            v.subs[1] = {static_cast<uint16_t>(j), d};
            fn(static_cast<const Variant&>(v));
          }
        }
      }
    }
  }

  /// Heap bytes held by the table.
  size_t MemoryUsage() const { return entries_.capacity() * sizeof(uint64_t); }

  /// Serialized payload: entry i is (lo << 32) | hi for q-gram key i.
  const std::vector<uint64_t>& entries() const { return entries_; }

 private:
  static uint64_t PackEntry(SaIndex lo, SaIndex hi) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
           static_cast<uint32_t>(hi);
  }

  uint32_t q_ = 0;
  std::vector<uint64_t> entries_;  // 4^q packed {lo, hi} pairs, key-indexed
};

}  // namespace bwtk

#endif  // BWTK_BWT_PREFIX_TABLE_H_
