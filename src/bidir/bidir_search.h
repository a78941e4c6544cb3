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
// Thread safety: Search is const and, apart from a mutex-guarded
// per-budget scheme cache, touches no shared mutable state; concurrent
// Search calls on one engine are safe (the BatchSearcher contract).

#ifndef BWTK_BIDIR_BIDIR_SEARCH_H_
#define BWTK_BIDIR_BIDIR_SEARCH_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alphabet/dna.h"
#include "bidir/bi_fm_index.h"
#include "bidir/search_scheme.h"
#include "search/match.h"

namespace bwtk {

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
  /// analogue of a pruning heuristic.
  std::vector<Occurrence> Search(const std::vector<DnaCode>& pattern,
                                 int32_t k, SearchStats* stats) const;

  /// Runs ONE search of `scheme` and appends its raw hits — no
  /// normalization, no deduplication. The scheme property test uses this
  /// to prove per-search emission matches per-search admission exactly;
  /// `scheme` must have num_pieces() <= pattern.size() and a budget the
  /// bounds were built for.
  void ExecuteSearch(const std::vector<DnaCode>& pattern,
                     const SearchScheme& scheme, size_t search_index,
                     std::vector<Occurrence>* hits,
                     SearchStats* stats) const;

  const BiFmIndex& index() const { return *index_; }
  const BidirOptions& options() const { return options_; }

 private:
  /// The scheme used for a query with clamped budget `k` on a length-m
  /// pattern; ForBudget results are cached per budget (the k > 4 fallback
  /// validation is not free), Trivial fallbacks are built inline.
  const SearchScheme* SchemeFor(int32_t k, size_t m,
                                std::optional<SearchScheme>* storage) const;

  const BiFmIndex* index_;
  BidirOptions options_;

  mutable std::mutex scheme_mu_;
  mutable std::unordered_map<int32_t, SearchScheme> scheme_cache_;
};

}  // namespace bwtk

#endif  // BWTK_BIDIR_BIDIR_SEARCH_H_
