// Search schemes for k-mismatch matching over a bidirectional FM-index.
//
// A scheme splits the pattern into `num_pieces` contiguous pieces and runs
// several *searches*; each search visits the pieces in a connected order
// (every next piece is adjacent to the interval already covered, so the
// matched window only ever grows left or right — executable on a
// BiFmIndex) under cumulative lower/upper mismatch bounds. The union of
// the searches must admit every way of distributing <= k mismatches over
// the pieces at least once (no occurrence missed); a scheme whose searches
// admit every distribution *exactly* once additionally emits no duplicates
// (vector_disjoint()). Formalization per Kucherov/Salikhov/Tsur
// (arXiv:1310.1440); the built-in tables follow the optimization line of
// Kianfar et al. (arXiv:1711.02035) — found by exact cover over the error
// vectors, minimizing search count with mismatch-poor early bounds — and
// are re-validated exhaustively at construction. docs/BIDIRECTIONAL.md
// gives the full semantics and the correctness argument.

#ifndef BWTK_BIDIR_SEARCH_SCHEME_H_
#define BWTK_BIDIR_SEARCH_SCHEME_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace bwtk {

/// One search of a scheme. `order[t]` is the piece visited at step t
/// (0-based piece ids); after finishing that piece the cumulative mismatch
/// count over all visited pieces must lie in [lower[t], upper[t]].
/// `upper[t]` additionally applies continuously *inside* piece t (mismatch
/// counts only grow, so the piece-boundary statement of the bounds is
/// equivalent for which full distributions are admitted).
struct SchemeSearch {
  std::vector<uint8_t> order;
  std::vector<uint16_t> lower;
  std::vector<uint16_t> upper;

  bool operator==(const SchemeSearch&) const = default;
};

class SearchScheme {
 public:
  /// Error-vector spaces larger than this are not enumerated by Create's
  /// validator (the greedy fallback for very large k would otherwise make
  /// construction combinatorial); such schemes load with coverage unproven
  /// and vector_disjoint() conservatively false.
  static constexpr uint64_t kValidationCap = uint64_t{1} << 20;

  /// Validated construction. InvalidArgument unless, for every search:
  /// order is a connected permutation of [0, num_pieces); lower/upper are
  /// monotone nondecreasing with lower[t] <= upper[t] <= k; and — when the
  /// error-vector space is within kValidationCap — every distribution of
  /// <= k mismatches over the pieces is admitted by at least one search.
  static Result<SearchScheme> Create(int32_t k, uint32_t num_pieces,
                                     std::vector<SchemeSearch> searches);

  /// The built-in scheme for mismatch budget `k`: exact-cover-optimized
  /// tables for k <= 4 (validated disjoint + covering), the pigeonhole
  /// k+1-piece fallback above (covering but overlapping; the executor
  /// deduplicates). k = 0 is the trivial single exact search.
  static SearchScheme ForBudget(int32_t k);

  /// The one-piece, one-search scheme (plain left-to-right descent with
  /// budget k): the fallback when the pattern is shorter than the pieces a
  /// partition scheme wants.
  static SearchScheme Trivial(int32_t k);

  int32_t k() const { return k_; }
  uint32_t num_pieces() const { return num_pieces_; }
  const std::vector<SchemeSearch>& searches() const { return searches_; }

  /// True when the searches were proven to admit every error distribution
  /// exactly once; the executor then skips output deduplication.
  bool vector_disjoint() const { return vector_disjoint_; }

  /// True when `search` admits the per-piece mismatch distribution `vec`
  /// (vec[i] = mismatches falling in piece i). Exposed for the property
  /// tests, which re-prove the cover argument against a brute-force oracle.
  static bool Admits(const SchemeSearch& search,
                     const std::vector<int32_t>& vec);

  /// Splits a length-m pattern into p contiguous pieces of near-equal size
  /// (later pieces take the remainder): returns the p+1 piece boundaries,
  /// boundaries[i] = floor(i*m/p). Requires 1 <= p <= m.
  static std::vector<uint32_t> PieceBoundaries(uint32_t m, uint32_t p);
  /// The same boundaries written into `*out`, reusing its capacity.
  static void PieceBoundaries(uint32_t m, uint32_t p,
                              std::vector<uint32_t>* out);

 private:
  SearchScheme() = default;

  int32_t k_ = 0;
  uint32_t num_pieces_ = 1;
  bool vector_disjoint_ = false;
  std::vector<SchemeSearch> searches_;
};

}  // namespace bwtk

#endif  // BWTK_BIDIR_SEARCH_SCHEME_H_
