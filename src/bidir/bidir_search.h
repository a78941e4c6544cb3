// The bidirectional search-scheme engine: k-mismatch matching by walking a
// SearchScheme over a BiFmIndex.
//
// Where the S-tree engine enumerates mismatch placements left to right —
// so a branch can carry its full budget deep into the pattern before any
// placement is forced — a scheme search visits the pattern pieces in an
// order whose early upper bounds are mismatch-poor: most random branches
// die within the first piece at 0 or 1 allowed mismatches, and only the
// few survivors pay for the permissive tail. This is the regime reversal
// the partition literature targets (Kucherov/Salikhov/Tsur arXiv:1310.1440,
// Kianfar et al. arXiv:1711.02035): large k and long reads, exactly where
// plain enumeration's frontier multiplies.
//
// Output contract: byte-identical Occurrences (position, mismatches),
// normalized, to the naive scanner and every other Hamming engine — the
// cross-validation harness holds this engine to the same equality the
// paper engines satisfy. Covering schemes guarantee no occurrence is
// missed; vector-disjoint schemes (all built-ins for k <= 4) emit each
// occurrence exactly once, and for overlapping fallback schemes the
// executor deduplicates after the normalizing sort.
//
// Finishing in the text: once a frame's interval holds at most 4 rows and
// its window is long enough that a random match of it is unlikely
// (n * C(L, e) * 3^e / 4^L <= 1/16 for a window of L symbols with e
// mismatches), the walk stops extending it. It resolves each row to
// its text position and compares the rest of the pattern against the
// index's packed text, step by step under the bounds the extension would
// apply, so it emits exactly the hits the extension would have.
//
// Execution: every search runs as a resumable walk of a BidirWalkSet. One
// thread may keep several queries' walks in flight and step them round-
// robin, so that each walk's rank-block misses overlap with the other
// walks' turns; Search and ExecuteSearch are the one-walk case of the same
// loop.
//
// Thread safety: Search is const and, apart from a mutex-guarded
// per-budget scheme cache, touches no shared mutable state; concurrent
// Search calls on one engine are safe (the BatchSearcher contract). A
// BidirWalkSet belongs to one thread.

#ifndef BWTK_BIDIR_BIDIR_SEARCH_H_
#define BWTK_BIDIR_BIDIR_SEARCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alphabet/dna.h"
#include "bidir/bi_fm_index.h"
#include "bidir/search_scheme.h"
#include "obs/trace.h"
#include "search/match.h"

namespace bwtk {

class BidirWalkSet;

struct BidirOptions {
  /// Scheme override for tests and experiments; must outlive the engine.
  /// Used only when its budget equals the (clamped) query k and the
  /// pattern is long enough for its pieces; otherwise the engine falls
  /// back to SearchScheme::ForBudget / Trivial as usual.
  const SearchScheme* scheme = nullptr;
};

class BidirectionalSearch {
 public:
  /// `index` must outlive the engine.
  explicit BidirectionalSearch(const BiFmIndex* index,
                               const BidirOptions& options = {});

  /// All occurrences of `pattern` within Hamming distance k, normalized
  /// (position, then mismatches). Fills `*stats` (may be null) with the
  /// per-query counters: extend_calls counts symbols considered per
  /// ExtendRightAll/ExtendLeftAll (kDnaAlphabetSize per step, the S-tree
  /// engine's convention), budget_pruned counts upper-bound cuts, and
  /// tau_pruned counts lower-bound (piece-boundary) cuts — the scheme's
  /// analogue of a pruning heuristic. A row finished in the text counts
  /// under budget_pruned when it breaks an upper bound or its occurrence
  /// would leave the text, under tau_pruned when it breaks a lower bound,
  /// and completed_paths counts one path per distinct matched string, as
  /// the extension would.
  std::vector<Occurrence> Search(const std::vector<DnaCode>& pattern,
                                 int32_t k, SearchStats* stats) const;

  /// Runs ONE search of `scheme` and appends its raw hits — no
  /// normalization, no deduplication. The scheme property test uses this
  /// to prove per-search emission matches per-search admission exactly;
  /// `scheme` must have num_pieces() <= pattern.size() and a budget the
  /// bounds were built for. A pattern longer than the text appends nothing.
  void ExecuteSearch(const std::vector<DnaCode>& pattern,
                     const SearchScheme& scheme, size_t search_index,
                     std::vector<Occurrence>* hits,
                     SearchStats* stats) const;

  const BiFmIndex& index() const { return *index_; }
  const BidirOptions& options() const { return options_; }

 private:
  friend class BidirWalkSet;

  /// The scheme used for a query with clamped budget `k` on a length-m
  /// pattern; ForBudget results are cached per budget (the k > 4 fallback
  /// validation is not free), Trivial fallbacks are built inline.
  const SearchScheme* SchemeFor(int32_t k, size_t m,
                                std::optional<SearchScheme>* storage) const;

  const BiFmIndex* index_;
  BidirOptions options_;
  /// verify_from_[e]: the least window length L from which on a window with
  /// e mismatches passes the random-match bound, at L and every longer
  /// window. Budgets of 64 and more run the one-piece Trivial scheme, and
  /// its frames with more mismatches than the table covers are always
  /// extended.
  std::array<uint32_t, 65> verify_from_{};

  mutable std::mutex scheme_mu_;
  mutable std::unordered_map<int32_t, SearchScheme> scheme_cache_;
};

/// A fixed number of slots, each holding one resumable scheme walk: a
/// query's scheme, per-character steps, DFS stack, hits, stats and trace.
/// Next() steps the walks in flight round-robin. One turn pops one frame,
/// extends it and pushes its children exactly as a lone search would, then
/// prefetches the rank blocks of that walk's next frame, so its misses are
/// under way while the other walks take their turns. A walk's seed step
/// takes two turns: one enumerates the seed variants once, keeping both
/// tables' keys of each in the slot's seed list, and prefetches their
/// entries; the next looks the list's entries up.
///
/// A frame that is complete, or narrow and long enough (see
/// BidirectionalSearch), is finished in the text over several turns: each
/// turn moves every row of the frame (at most 4 at a time) by one locate
/// step and prefetches what the row's next step reads, so that the other
/// walks' turns hide the misses of its walk to a suffix-array sample. The
/// rows are then compared against the text in row order, and the walk pops
/// no other frame meanwhile.
///
/// Each walk visits its frames in the order a lone search would, so its
/// hits and every SearchStats counter are the same however many walks are
/// in flight. Slots keep their vectors between walks: a warm set allocates
/// nothing per query beyond the hits it hands back.
///
/// Tracing: a walk records nodes and prefix hits into the trace given to
/// Start, never into the thread's active trace, and a traced walk reads
/// the clock around each of its own turns (own_nanos), so interleaved
/// walks do not time each other. Untraced walks never read the clock per
/// turn.
///
/// Not thread-safe: one set per thread. Engines and indexes are shared
/// read-only.
class BidirWalkSet {
 public:
  /// Walks one BatchSearcher worker keeps in flight (EngineBank::AnswerAll).
  /// 4, 8 and 16 measure alike on kmbench's map_reads (EXPERIMENTS.md).
  static constexpr size_t kBatchWalks = 8;
  /// What Next() returns when no walk is in flight.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// A set of `width` >= 1 slots, all free.
  explicit BidirWalkSet(size_t width);
  ~BidirWalkSet();
  BidirWalkSet(const BidirWalkSet&) = delete;
  BidirWalkSet& operator=(const BidirWalkSet&) = delete;

  size_t width() const;
  size_t in_flight() const { return in_flight_; }

  /// A free slot. Requires in_flight() < width().
  size_t FreeSlot() const;

  /// Starts engine.Search(pattern, k) in free slot `slot`. Nodes, prefix
  /// hits and a "bidir_scheme_walk" span go to `trace` (may be null).
  /// `engine`, `pattern` and `trace` must stay alive until Next() returns
  /// the slot.
  void Start(size_t slot, const BidirectionalSearch& engine,
             const std::vector<DnaCode>& pattern, int32_t k,
             obs::Trace* trace);

  /// Steps the walks in flight until one finishes and returns its slot,
  /// which is free again; kNoSlot when no walk is in flight. A walk that is
  /// alone in the set runs to its end without prefetching its next frame,
  /// which its very next turn would load anyway.
  size_t Next();

  /// The results of the walk Next() last returned for `slot`, valid until
  /// the slot is started again: its hits (normalized, as Search returns
  /// them), its stats, and for a traced walk the nanoseconds of its own
  /// turns (0 when untraced).
  std::vector<Occurrence> TakeHits(size_t slot);
  const SearchStats& stats(size_t slot) const;
  uint64_t own_nanos(size_t slot) const;

 private:
  friend class BidirectionalSearch;
  struct Walk;

  /// ExecuteSearch's walk: search `search_index` of `scheme` alone, raw
  /// hits (no normalization), no per-query metrics.
  void StartSearch(size_t slot, const BidirectionalSearch& engine,
                   const std::vector<DnaCode>& pattern,
                   const SearchScheme& scheme, size_t search_index,
                   obs::Trace* trace);

  template <bool kPrefetchNext>
  bool Turn(Walk& w);
  template <bool kPrefetch>
  bool Resolve(Walk& w);
  void BeginSearch(Walk& w);
  void SeedFrames(Walk& w);
  bool EndSearch(Walk& w);
  void Finish(Walk& w);

  std::vector<Walk> walks_;
  size_t in_flight_ = 0;
  size_t cursor_ = 0;  // the slot whose turn is next
};

}  // namespace bwtk

#endif  // BWTK_BIDIR_BIDIR_SEARCH_H_
