// Bidirectional FM-index: two synchronized FM-indexes over the text and its
// reverse, so a matched window of the pattern can be extended one character
// to the LEFT *or* to the RIGHT in O(1) rank operations per step.
//
// The forward half is the repo's standard FmIndex (built over `text`, its
// matrix conceptually sorts the rotations of reverse(text)$, and its
// Extend() consumes pattern characters left to right). The reverse half is
// an FmIndex built over reverse(text); its matrix sorts the rotations of
// text$, so its Extend() consumes characters right to left. A BiRange pairs
// one row interval from each half such that both represent the *same*
// multiset of occurrences of the current window W:
//
//   range.fwd — rows of the forward matrix prefixed with reverse(W)
//   range.rev — rows of the reverse matrix prefixed with W
//
// Invariant: range.fwd.count() == range.rev.count() == occ(W).
//
// One extension performs a real ExtendAll on the half whose "reading
// direction" matches, and resynchronizes the other half arithmetically:
// within the other half's interval the sub-blocks for W extended by each
// symbol are contiguous and sorted $ < a < c < g < t (the continuation
// character is the next character of the row), so the counts returned by
// ExtendAll are exactly the sub-block widths. This is the standard
// 2FM-index construction (Lam et al. 2009), the substrate the search
// schemes of Kucherov/Salikhov/Tsur (arXiv:1310.1440) and Kianfar et al.
// (arXiv:1711.02035) execute on. See docs/BIDIRECTIONAL.md for the full
// correctness argument.
//
// The index also keeps its text, 2-bit packed, so a scheme walk can finish
// a narrow interval by reading the rest of each occurrence instead of
// extending it (bidir/bidir_search.h).
//
// Thread safety: immutable after Build()/Load()/FromForward(); all query
// methods are const and stateless, the same contract as FmIndex.

#ifndef BWTK_BIDIR_BI_FM_INDEX_H_
#define BWTK_BIDIR_BI_FM_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "alphabet/dna.h"
#include "alphabet/packed_sequence.h"
#include "bwt/fm_index.h"
#include "util/logging.h"
#include "util/status.h"

namespace bwtk {

/// On-disk format constants for the paired index (see Save/Load).
///
/// Version history:
///   1 — header (magic, version, text size), then the two embedded FmIndex
///       streams (forward, reverse) in the bwt/serialize.cc format, then an
///       FNV-1a checksum over the pair's content fingerprints.
///       The text is not stored: Load rebuilds it by inverting the forward
///       half's BWT, as FromForward does.
///   2 — the reverse half keeps no suffix-array samples (SA sample rate 0,
///       empty sample sections). Load still reads a version-1 stream and
///       drops its reverse half's samples once the checksum has passed.
/// Monolithic FmIndex files (magic "BWTK") are *not* loadable here — they
/// lack the reverse half — but remain loadable by FmIndex::Load for the
/// forward-only engines; Load reports the distinction explicitly.
struct BiFmIndexFormat {
  static constexpr uint32_t kMagic = 0x42575442;  // "BWTB"
  static constexpr uint32_t kVersion = 2;
  static constexpr uint32_t kMinSupportedVersion = 1;
};

class BiFmIndex {
 public:
  /// Both halves are built with the same checkpoint rate and rank kernel.
  /// Only the forward half keeps suffix-array samples, at `sa_sample_rate`:
  /// the scheme walks locate on it alone, and a locate call on the reverse
  /// half fails a CHECK. `prefix_table_q` must stay 0: the index picks the q
  /// of its seed tables itself (SeedTableQ).
  using Options = FmIndex::Options;

  /// A synchronized pair of row intervals, one per half, representing the
  /// occurrences of the current pattern window (class comment above).
  struct BiRange {
    FmIndex::Range fwd;
    FmIndex::Range rev;
    bool empty() const { return fwd.empty(); }
    SaIndex count() const { return fwd.count(); }
    bool operator==(const BiRange&) const = default;
  };

  /// Indexes `text` and reverse(text). The two halves are built at once on
  /// two threads (this one and one it starts and joins), so the wall time
  /// is about that of one FmIndex::Build and the memory that of two. Then
  /// both halves get their seed tables, and the index packs a copy of
  /// `text`. InvalidArgument when options.prefix_table_q is not 0.
  static Result<BiFmIndex> Build(const std::vector<DnaCode>& text,
                                 const Options& options);
  static Result<BiFmIndex> Build(const std::vector<DnaCode>& text) {
    return Build(text, Options());
  }

  /// Upgrade path from an existing forward index (e.g. a monolithic index
  /// file on disk): reconstructs the indexed text by inverting the BWT,
  /// keeps it packed and builds the reverse half from it with the forward
  /// half's options, less the samples. A forward table at another q than SeedTableQ is
  /// replaced; one at SeedTableQ is kept once it agrees with the new
  /// reverse table (else Corruption).
  static Result<BiFmIndex> FromForward(FmIndex forward);

  /// q of the q-gram tables (bwt/prefix_table.h) that every BiFmIndex
  /// carries on both halves to seed its scheme walks:
  /// min(PrefixIntervalTable::kMaxQ, floor(log4 n) - 1) for a text of n
  /// symbols, and 0 (no tables) when that is below 1. A table costs 8 * 4^q
  /// bytes, so at most 2 bytes per base per half.
  static uint32_t SeedTableQ(size_t text_size);

  size_t text_size() const { return fwd_.text_size(); }
  size_t rows() const { return fwd_.rows(); }

  const FmIndex& forward() const { return fwd_; }
  const FmIndex& reverse() const { return rev_; }
  /// The indexed text, 2 bits per base (n / 4 bytes).
  const PackedSequence& text() const { return text_; }

  /// The root pair: every row of both matrices (the empty window).
  BiRange WholeRange() const {
    return {fwd_.WholeRange(), rev_.WholeRange()};
  }

  /// All four one-symbol extensions of the window to the right (window W
  /// becomes W·c): one ExtendAll on the forward half plus arithmetic
  /// resynchronization of the reverse half. `out[c]` may be empty.
  void ExtendRightAll(const BiRange& range,
                      BiRange out[kDnaAlphabetSize]) const {
    BWTK_DCHECK_EQ(range.fwd.count(), range.rev.count());
    FmIndex::Range children[kDnaAlphabetSize];
    fwd_.ExtendAll(range.fwd, children);
    SaIndex extended = 0;
    for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
      extended += children[c].count();
    }
    // Reverse-half rows prefixed W split by the continuation character into
    // the (at most one) W$ row followed by the W·a, W·c, W·g, W·t blocks.
    SaIndex lo = range.rev.lo + (range.fwd.count() - extended);
    for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
      const SaIndex width = children[c].count();
      out[c].fwd = children[c];
      out[c].rev = {lo, lo + width};
      lo += width;
    }
  }

  /// All four one-symbol extensions of the window to the left (window W
  /// becomes c·W); the mirror of ExtendRightAll.
  void ExtendLeftAll(const BiRange& range,
                     BiRange out[kDnaAlphabetSize]) const {
    BWTK_DCHECK_EQ(range.fwd.count(), range.rev.count());
    FmIndex::Range children[kDnaAlphabetSize];
    rev_.ExtendAll(range.rev, children);
    SaIndex extended = 0;
    for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
      extended += children[c].count();
    }
    SaIndex lo = range.fwd.lo + (range.rev.count() - extended);
    for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
      const SaIndex width = children[c].count();
      out[c].rev = children[c];
      out[c].fwd = {lo, lo + width};
      lo += width;
    }
  }

  /// Hints the cache that ExtendRightAll (`right`) or ExtendLeftAll of
  /// `range` comes next: prefetches the rank blocks of both ends of the
  /// interval on the half that extension ranks. A scheme walk calls it for
  /// its next frame before the other walks in flight take their turns
  /// (BidirWalkSet). Force-inlined for the reason given at
  /// OccTable::Prefetch.
  [[gnu::always_inline]] void PrefetchExtend(const BiRange& range,
                                             bool right) const {
    const OccTable& occ = right ? fwd_.occ() : rev_.occ();
    const FmIndex::Range& rows = right ? range.fwd : range.rev;
    occ.Prefetch(static_cast<size_t>(rows.lo));
    occ.Prefetch(static_cast<size_t>(rows.hi));
  }

  /// Single-symbol conveniences (tests and simple callers; engines use the
  /// *All forms, which share the rank scans across the four symbols).
  BiRange ExtendRight(const BiRange& range, DnaCode c) const {
    BiRange out[kDnaAlphabetSize];
    ExtendRightAll(range, out);
    return out[c];
  }
  BiRange ExtendLeft(const BiRange& range, DnaCode c) const {
    BiRange out[kDnaAlphabetSize];
    ExtendLeftAll(range, out);
    return out[c];
  }

  /// Reverses the base-4 digits of a forward prefix-table key (key < 4^q):
  /// the reverse half's table is keyed by the window read right to left, so
  /// a window W's entries are PackKey(W) in the forward table and
  /// ReverseKey of it in the reverse table. It reverses all 32 digits of the
  /// word (swap digit pairs, then nibbles, then bytes) and shifts the q that
  /// were the key down again. The seed tables' pair check calls it once per
  /// key; a seed step takes both keys from PrefixIntervalTable::Variant.
  static uint64_t ReverseKey(uint64_t key, uint32_t q) {
    BWTK_DCHECK(q <= 32 && (q == 32 || key >> (2 * q) == 0));
    if (q == 0) return 0;
    key = ((key >> 2) & 0x3333333333333333ULL) |
          ((key & 0x3333333333333333ULL) << 2);
    key = ((key >> 4) & 0x0F0F0F0F0F0F0F0FULL) |
          ((key & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(key) >> (64 - 2 * q);
  }

  /// Approximate heap footprint of both halves and the packed text.
  size_t MemoryUsage() const {
    return fwd_.MemoryUsage() + rev_.MemoryUsage() + text_.MemoryUsage();
  }

  // --- Serialization ------------------------------------------------------
  // Both halves plus a checksum under the "BWTB" magic (BiFmIndexFormat).
  // Load rebuilds the packed text from the forward half (one LF step per
  // base), keeps seed tables saved at SeedTableQ, once the two agree on every
  // q-gram's count, and builds the ones that are missing or at another q.
  Status Save(std::ostream& out) const;
  static Result<BiFmIndex> Load(std::istream& in);
  Status SaveToFile(const std::string& path) const;
  static Result<BiFmIndex> LoadFromFile(const std::string& path);

 private:
  BiFmIndex(FmIndex fwd, FmIndex rev, PackedSequence text);

  /// Gives both halves a seed table at SeedTableQ(text_size()), building
  /// each one that is missing or at another q. Corruption when a table it
  /// keeps disagrees with the other half's on some q-gram's count.
  Status FitSeedTables();

  FmIndex fwd_;
  FmIndex rev_;
  PackedSequence text_;
};

}  // namespace bwtk

#endif  // BWTK_BIDIR_BI_FM_INDEX_H_
