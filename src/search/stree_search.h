// The BWT-baseline k-mismatch search (Section IV.A — the method of [34]).
//
// A depth-first enumeration of the S-tree (Definition 1): each node is a
// pair <x, [α, β]> produced by one search() step; every root-to-leaf path
// of length m with at most k mismatching nodes is an occurrence. The τ(i)
// heuristic optionally prunes subtrees that cannot recover within the
// remaining mismatch budget. No mismatch information is reused — that is
// exactly what Algorithm A (algorithm_a.h) adds on top.

#ifndef BWTK_SEARCH_STREE_SEARCH_H_
#define BWTK_SEARCH_STREE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "search/match.h"

namespace bwtk {

/// Configuration of the baseline S-tree search.
struct STreeOptions {
  /// Apply the τ(i) pruning of [34]. Off gives the pure brute-force S-tree.
  bool use_tau = true;
};

/// Brute-force S-tree search over an FM-index.
class STreeSearch {
 public:
  /// `index` must outlive the searcher.
  explicit STreeSearch(const FmIndex* index) : index_(index) {}
  STreeSearch(const FmIndex* index, const STreeOptions& options)
      : index_(index), options_(options) {}

  /// All occurrences of `pattern` with at most `k` mismatches, sorted by
  /// position. `stats`, if given, receives instrumentation counters.
  std::vector<Occurrence> Search(const std::vector<DnaCode>& pattern,
                                 int32_t k,
                                 SearchStats* stats = nullptr) const;

  const FmIndex& index() const { return *index_; }

 private:
  const FmIndex* index_;  // not owned
  STreeOptions options_;
};

}  // namespace bwtk

#endif  // BWTK_SEARCH_STREE_SEARCH_H_
