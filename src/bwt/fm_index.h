// FM-index over the *reverse* of the target text.
//
// The paper searches the pattern r against BWT(reverse(s)) so that
// backward-search steps consume r's characters left to right (Section III.A
// and Definition 1). FmIndex packages that convention: Extend() performs one
// search() step of the paper — narrowing a pair <x, [α, β]> to its
// sub-range for the next character — and Locate() maps final rows back to
// occurrence start positions in the original, un-reversed text.

#ifndef BWTK_BWT_FM_INDEX_H_
#define BWTK_BWT_FM_INDEX_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/bwt.h"
#include "bwt/occ_table.h"
#include "bwt/prefix_table.h"
#include "obs/metrics.h"
#include "suffix/suffix_array.h"
#include "util/bit_vector.h"
#include "util/logging.h"
#include "util/status.h"

namespace bwtk {

/// Self-index supporting backward search and occurrence location.
///
/// Thread safety: an FmIndex is immutable once Build()/Load() returns, and
/// every query method (Extend, ExtendAll, MatchForward, Locate,
/// SuffixArrayValue, ...) is const and free of hidden mutable state — no
/// caches, no lazy initialization. Any number of threads may therefore query
/// one shared index concurrently without synchronization; this is the
/// contract BatchSearcher relies on. Mutating operations (move-assignment,
/// destruction) must still be externally ordered against readers.
class FmIndex {
 public:
  struct Options {
    /// Rankall checkpoint spacing (rows per checkpoint, multiple of 32).
    uint32_t checkpoint_rate = OccTable::kDefaultCheckpointRate;
    /// Suffix-array sample spacing (every rate-th text position).
    uint32_t sa_sample_rate = 8;
    /// q-gram size of a forward-only index's precomputed prefix interval
    /// table (0 = no table, the default; max PrefixIntervalTable::kMaxQ). A
    /// table costs 8 * 4^q bytes — 128 MB at q = 12 — and lets engines
    /// replace the first q backward-search steps of a descent with one
    /// lookup. See bwt/prefix_table.h. A BiFmIndex picks its own q and
    /// rejects a nonzero value here.
    uint32_t prefix_table_q = 0;
    /// Checkpoint-gap rank kernel. kAuto resolves at Build to AVX2 when the
    /// host supports it, the portable word-parallel kernel otherwise.
    OccTable::RankKernel rank_kernel = OccTable::RankKernel::kAuto;
  };

  /// A half-open row interval [lo, hi) of the conceptual sorted-rotation
  /// matrix; the in-code form of the paper's pair <x, [α, β]>.
  struct Range {
    SaIndex lo = 0;
    SaIndex hi = 0;
    bool empty() const { return lo >= hi; }
    SaIndex count() const { return hi - lo; }
    bool operator==(const Range&) const = default;
  };

  /// Indexes `text`. The reversal, suffix array, BWT, rank checkpoints and
  /// SA samples are all constructed here; `text` itself is not retained.
  static Result<FmIndex> Build(const std::vector<DnaCode>& text,
                               const Options& options);
  static Result<FmIndex> Build(const std::vector<DnaCode>& text) {
    return Build(text, Options());
  }

  /// Length of the indexed text (excluding the sentinel).
  size_t text_size() const { return n_; }
  /// Number of BWT rows (text_size() + 1).
  size_t rows() const { return n_ + 1; }

  /// The range of every row: the virtual root <-, [0, n]> of the S-tree.
  Range WholeRange() const { return {0, static_cast<SaIndex>(rows())}; }

  /// One backward-search step: rows of `range` whose suffix, prefixed with
  /// `c`, still occurs. Equals the paper's search(c, L_range). May be empty.
  ///
  /// Deliberately NOT hooked into the metrics registry: Extend/ExtendAll
  /// are the innermost search operations (tens of ns), so callers on the
  /// query path count their invocations locally and flush the totals to
  /// the registry once per query (see the note in occ_table.h).
  Range Extend(Range range, DnaCode c) const {
    uint32_t rank_lo;
    uint32_t rank_hi;
    occ_.RankPair(c, static_cast<size_t>(range.lo),
                  static_cast<size_t>(range.hi), &rank_lo, &rank_hi);
    return {static_cast<SaIndex>(first_row_[c] + rank_lo),
            static_cast<SaIndex>(first_row_[c] + rank_hi)};
  }

  /// All four one-symbol extensions of `range` at once; cheaper than four
  /// Extend calls because the rank scans are shared. `out[c]` may be empty.
  void ExtendAll(Range range, Range out[kDnaAlphabetSize]) const {
    uint32_t lo_ranks[kDnaAlphabetSize];
    uint32_t hi_ranks[kDnaAlphabetSize];
    occ_.Prefetch(static_cast<size_t>(range.hi));
    occ_.RankAll(range.lo, lo_ranks);
    occ_.RankAll(range.hi, hi_ranks);
    for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
      out[c] = {static_cast<SaIndex>(first_row_[c] + lo_ranks[c]),
                static_cast<SaIndex>(first_row_[c] + hi_ranks[c])};
    }
  }

  /// Feeds `pattern` left to right through Extend; the resulting range
  /// covers exactly the occurrences of `pattern` in the original text.
  Range MatchForward(const std::vector<DnaCode>& pattern) const;

  /// Number of occurrences of `pattern` in the text.
  size_t CountOccurrences(const std::vector<DnaCode>& pattern) const {
    const Range range = MatchForward(pattern);
    return range.empty() ? 0 : static_cast<size_t>(range.count());
  }

  /// Start positions (in the original text) of the occurrences represented
  /// by `range` after extending `depth` characters. Unsorted.
  std::vector<size_t> Locate(Range range, size_t depth) const;

  /// Suffix-array value of `row` (position in the reversed text), recovered
  /// from the samples by LF-walking: LocateStep until a sampled row, whose
  /// sample plus the LF steps taken is the value.
  size_t SuffixArrayValue(SaIndex row) const;

  /// One step of that walk. When `*row` is sampled, replaces it with the
  /// index of its sample (Sample reads it) and returns true; otherwise
  /// LF-maps it to the row of the suffix one text position to the left and
  /// returns false. Counts nothing: callers tally their LF steps and flush
  /// them, as the extension steps are (see the note in occ_table.h). A
  /// scheme walk takes one step per turn (BidirWalkSet), SuffixArrayValue
  /// loops over it. Requires an index with samples: not the reverse half
  /// of a BiFmIndex.
  bool LocateStep(size_t* row) const {
    BWTK_DCHECK(options_.sa_sample_rate != 0);
    const size_t at = *row;
    if (sampled_rows_.Get(at)) {
      *row = static_cast<size_t>(sampled_rows_.Rank1(at));
      return true;
    }
    BWTK_DCHECK_NE(at, bwt_->sentinel_row);
    const DnaCode c = bwt_->codes.at(at);
    *row = static_cast<size_t>(first_row_[c]) + occ_.Rank(c, at);
    return false;
  }

  /// Suffix-array value stored as sample `i` (LocateStep's sampled result).
  size_t Sample(size_t i) const { return static_cast<size_t>(sa_samples_[i]); }

  /// Hints the cache that LocateStep(row) comes next: prefetches the
  /// sampled-row bit word and its rank word, the BWT word and the
  /// occurrence checkpoint. Force-inlined for the reason given at
  /// OccTable::Prefetch.
  [[gnu::always_inline]] void PrefetchLocateStep(size_t row) const {
    sampled_rows_.Prefetch(row);
    __builtin_prefetch(bwt_->codes.words().data() + (row >> 5));
    occ_.Prefetch(row);
  }

  /// Hints the cache that Sample(i) comes next. Force-inlined likewise.
  [[gnu::always_inline]] void PrefetchSample(size_t i) const {
    __builtin_prefetch(sa_samples_.data() + i);
  }

  const Bwt& bwt() const { return *bwt_; }
  const OccTable& occ() const { return occ_; }
  const Options& options() const { return options_; }

  /// The q-gram prefix interval table, or nullptr when built with
  /// prefix_table_q = 0 (or loaded from a file saved without one).
  const PrefixIntervalTable* prefix_table() const {
    return prefix_table_.get();
  }
  /// q of the attached prefix table, 0 when absent.
  uint32_t prefix_table_q() const {
    return prefix_table_ ? prefix_table_->q() : 0;
  }

  /// (Re)builds the q-gram prefix table from the live index — the upgrade
  /// path for format-v1 files, which load without one (index_tool's
  /// `upgrade` mode drives this; see docs/API.md), and how a BiFmIndex
  /// tables its halves. q = 0 removes the table.
  /// The result is byte-identical to having built the index with
  /// Options::prefix_table_q = q; Save() then persists it.
  ///
  /// This is the one post-construction mutation the class allows, and it
  /// breaks the concurrent-reader contract while running: callers must
  /// ensure no other thread queries the index until it returns.
  Status RebuildPrefixTable(uint32_t q);
  /// Name of the rank kernel resolved at build time ("word64", "avx2", ...).
  std::string_view rank_kernel_name() const { return occ_.kernel_name(); }

  /// Approximate heap footprint in bytes of the whole index.
  size_t MemoryUsage() const;

  // --- Serialization (implemented in bwt/serialize.cc) ------------------
  Status Save(std::ostream& out) const;
  static Result<FmIndex> Load(std::istream& in);
  Status SaveToFile(const std::string& path) const;
  static Result<FmIndex> LoadFromFile(const std::string& path);

 private:
  friend class FmIndexSerializer;
  friend class BiFmIndex;

  FmIndex() = default;

  /// Build() without the reversal: the BWT is that of sequence$, so this
  /// equals Build(reverse(sequence)). BiFmIndex builds its reverse half
  /// from the text this way, with options.sa_sample_rate 0: such a half
  /// keeps no suffix-array samples, and a locate call on it fails a CHECK.
  static Result<FmIndex> BuildOver(const std::vector<DnaCode>& sequence,
                                   const Options& options);

  /// Load() that also accepts a stream without suffix-array samples: the
  /// reverse half of a BWTB stream.
  static Result<FmIndex> LoadReverseHalf(std::istream& in);

  /// Frees the suffix-array samples; the index is then a reverse half, as
  /// BuildOver makes it at sa_sample_rate 0.
  void DropSamples();

  /// SuffixArrayValue that adds the LF steps it takes to `*lf_steps`.
  size_t WalkToSample(SaIndex row, uint64_t* lf_steps) const;

  /// Rebuilds occ_ / first_row_ after bwt_ and samples are in place.
  Status FinishConstruction();

  size_t n_ = 0;
  Options options_;
  std::unique_ptr<Bwt> bwt_;  // heap-stable so occ_ can point at it
  OccTable occ_;
  /// first_row_[c] = first row whose suffix starts with symbol c; entry
  /// [kDnaAlphabetSize] caps the table at rows().
  std::array<SaIndex, kDnaAlphabetSize + 1> first_row_{};
  /// sampled_rows_[row] marks rows whose SA value is a multiple of the
  /// sample rate; sa_samples_ stores those values in row order. Both are
  /// empty when sa_sample_rate is 0 (a BiFmIndex's reverse half).
  BitVectorRank sampled_rows_;
  std::vector<SaIndex> sa_samples_;
  /// Optional q-gram shortcut table (Options::prefix_table_q > 0).
  std::unique_ptr<PrefixIntervalTable> prefix_table_;
};

}  // namespace bwtk

#endif  // BWTK_BWT_FM_INDEX_H_
