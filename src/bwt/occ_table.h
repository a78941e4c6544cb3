// The "rankall" structure of Section III.A (Fig. 2): for each DNA symbol x,
// A_x[i] = number of occurrences of x in L[0..i). The paper stores one
// rankall value per symbol for every 4 BWT elements; we generalize the
// checkpoint rate (one checkpoint block per `rate` rows, rate a multiple of
// 32) and fill the gap with word-level popcounts over the 2-bit packed BWT.
// The rate is the space/time knob exercised by bench_ablation_rankall.
//
// The gap scan of RankAll is served by one of three kernels, chosen once at
// Build time (see RankKernel): the original per-symbol scalar loop, a
// word-parallel kernel that classifies all four symbols of a word with three
// popcounts, and an AVX2 kernel that counts all four symbols in parallel
// SIMD lanes. bench_rank_kernel measures them against each other.

#ifndef BWTK_BWT_OCC_TABLE_H_
#define BWTK_BWT_OCC_TABLE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "alphabet/dna.h"
#include "alphabet/packed_sequence.h"
#include "bwt/bwt.h"
#include "util/status.h"

namespace bwtk {

/// Occurrence (rank) table over a BWT array.
///
/// Thread safety: immutable after Build(). Rank/RankAll/Total read only the
/// checkpoint directory and the (also immutable) BWT it points at, so
/// concurrent queries from any number of threads need no locking — the
/// const-method guarantee FmIndex extends to the whole query path.
///
/// Paper mapping: Rank(c, i) is the rankall value A_c[i] of Section III.A,
/// and one search() step of the paper (Definition 1) costs two Rank calls —
/// that per-step rank work is the unit its cost model charges, and what the
/// `extend_calls` counter of SearchStats and the `rank_calls` /
/// `rankall_calls` observability counters measure.
///
/// Observability: rank invocations are never counted here, nor per call at
/// the FmIndex layer — a Rank is ~30-50 ns, so even one thread-local
/// increment per backward-search step costs a measurable few percent. The
/// query path instead tallies steps in engine-local counters and flushes
/// totals to the registry once per query (MatchForward and the S-tree /
/// Algorithm A engines; see obs/metrics.h). Per-call *timing* of rank is
/// never done either; the bench harness estimates the rank phase by
/// calibration (docs/OBSERVABILITY.md).
class OccTable {
 public:
  static constexpr uint32_t kDefaultCheckpointRate = 64;

  /// Implementation of the checkpoint-gap scan.
  enum class RankKernel : uint8_t {
    /// Resolve at Build time: kAvx2 when compiled in and the CPU supports
    /// it, kWord64 otherwise. This is the default everywhere.
    kAuto,
    /// One Count2BitSymbols (XOR + popcount) pass per symbol per word — the
    /// original implementation, kept as the bench baseline.
    kScalar,
    /// Portable word-parallel kernel: three popcounts classify all four
    /// symbols of a 32-slot word at once (symbol 0 derived by subtraction).
    kWord64,
    /// AVX2: the four symbols are counted in parallel 64-bit SIMD lanes
    /// (broadcast word, per-lane XOR pattern, pshufb-LUT popcount).
    /// Requires a build without BWTK_DISABLE_AVX2 and a host with AVX2;
    /// Build() fails with InvalidArgument otherwise.
    kAvx2,
  };

  /// True when the AVX2 kernel is compiled in and this CPU supports it.
  static bool Avx2Available();

  /// Stable lowercase kernel name ("auto"/"scalar"/"word64"/"avx2") — the
  /// self-description recorded in bench reports.
  static std::string_view KernelName(RankKernel kernel);

  OccTable() = default;

  /// Builds checkpoints for `bwt`. `checkpoint_rate` must be a positive
  /// multiple of 32 (so checkpoints align with packed words). `kernel`
  /// selects the gap-scan implementation; kAuto picks the fastest
  /// available one.
  static Result<OccTable> Build(const Bwt* bwt,
                                uint32_t checkpoint_rate =
                                    kDefaultCheckpointRate,
                                RankKernel kernel = RankKernel::kAuto);

  /// Number of occurrences of `c` in L[0..pos). The sentinel row never
  /// counts toward any symbol. O(rate/32) word operations. Single-symbol
  /// rank is one popcount per word under every kernel — the kernels
  /// differentiate the 4-symbol gap scan of RankAll.
  uint32_t Rank(DnaCode c, size_t pos) const {
    uint32_t count = RawRank(c, pos);
    if (c == 0 && bwt_->sentinel_row < pos) --count;
    return count;
  }

  /// Fused Rank(c, lo) + Rank(c, hi) for lo <= hi — one backward-search
  /// step's worth of rank work (FmIndex::Extend). When both positions land
  /// in the same checkpoint block (the common case once a descent has
  /// narrowed its range) the checkpoint load and the scan up to `lo` are
  /// shared and only the [lo, hi) gap is scanned on top; otherwise the two
  /// scans are independent, and hi's two cache lines are prefetched (see
  /// Prefetch) before lo's scan so that their misses overlap.
  void RankPair(DnaCode c, size_t lo, size_t hi, uint32_t* rank_lo,
                uint32_t* rank_hi) const;

  /// Ranks of all four symbols at once — one pass over the checkpoint gap
  /// instead of four (this is why the paper's rankall stores all four
  /// counters per checkpoint). `out[c]` = Rank(c, pos).
  void RankAll(size_t pos, uint32_t out[kDnaAlphabetSize]) const;

  /// Hints the cache that a Rank/RankAll at `pos` is imminent: prefetches
  /// the checkpoint entry and the first gap word. RankPair and
  /// FmIndex::ExtendAll use it to overlap the second position's loads with
  /// the first's scan; BiFmIndex::PrefetchExtend to load a walk's next
  /// frame while other walks run.
  ///
  /// Force-inlined: gcc's pure-const pass marks an out-of-line copy of this
  /// body "looping pure" and then deletes every call to it as dead, so
  /// without the attribute no prefetch instruction reaches the binary. CI
  /// checks that occ_table.cc.o and bidir_search.cc.o contain some.
  [[gnu::always_inline]] void Prefetch(size_t pos) const {
    const size_t block = pos / rate_;
    __builtin_prefetch(checkpoints_.data() + block * kDnaAlphabetSize);
    const std::vector<uint64_t>& words = bwt_->codes.words();
    const size_t word = (block * static_cast<size_t>(rate_)) >> 5;
    if (word < words.size()) __builtin_prefetch(words.data() + word);
  }

  /// Occurrences of `c` in the whole BWT.
  uint32_t Total(DnaCode c) const { return totals_[c]; }

  uint32_t checkpoint_rate() const { return rate_; }
  /// The kernel resolved at Build time (never kAuto on a built table).
  RankKernel kernel() const { return kernel_; }
  std::string_view kernel_name() const { return KernelName(kernel_); }
  size_t size() const { return bwt_ == nullptr ? 0 : bwt_->codes.size(); }

  /// Heap bytes used by the checkpoint directory (excludes the BWT itself).
  size_t MemoryUsage() const {
    return checkpoints_.capacity() * sizeof(uint32_t);
  }

 private:
  /// Rank without the sentinel correction (the placeholder 'a' in the
  /// sentinel row's packed slot still counts).
  uint32_t RawRank(DnaCode c, size_t pos) const;

  /// Raw occurrences of `c` in L[lo, hi) by direct word scan (no
  /// checkpoint), for the same-block fast path of RankPair.
  uint32_t RawCountInRange(DnaCode c, size_t lo, size_t hi) const;

  const Bwt* bwt_ = nullptr;  // not owned
  uint32_t rate_ = kDefaultCheckpointRate;
  RankKernel kernel_ = RankKernel::kScalar;
  // checkpoints_[4 * block + c] = count of symbol c in L[0 .. block*rate),
  // counting the sentinel row's placeholder slot (corrected at query time).
  std::vector<uint32_t> checkpoints_;
  std::array<uint32_t, kDnaAlphabetSize> totals_{};
};

}  // namespace bwtk

#endif  // BWTK_BWT_OCC_TABLE_H_
