// Multi-pattern k-mismatch search: the PatternSetTrie walked jointly with
// the FM-index descent, so every shared pattern prefix is searched once.
//
// A single-pattern S-tree walk (search/stree_search.h) explores states
// <range, depth, mismatches>; the joint walk adds the trie node reached by
// the pattern characters consumed so far: <trie node, range, depth,
// mismatches>. One ExtendAll at each state answers for *every* pattern that
// shares the depth-long prefix the state's trie node represents — with N
// patterns of length m drawn from a real barcode set, the distinct trie
// paths number far fewer than N·m, and that difference is the amortization
// BENCH_dictionary.json measures. Restricting the walk to the frames whose
// trie node lies on one pattern's root-to-leaf path replays exactly the
// single-pattern S-tree walk for that pattern, which is why SearchAll is
// byte-identical, per pattern, to running each pattern alone (the proof
// sketch lives in DESIGN.md §2f).
//
// Like the single-pattern engines, the descent is seeded from the index's
// PrefixIntervalTable when the trie is at least q deep: each depth-q trie
// node's q-gram is expanded into its Hamming-ball variants and looked up,
// replacing the first q levels of the joint walk.

#ifndef BWTK_DICT_DICTIONARY_SEARCHER_H_
#define BWTK_DICT_DICTIONARY_SEARCHER_H_

#include <cstdint>
#include <vector>

#include "bwt/fm_index.h"
#include "dict/pattern_set_trie.h"
#include "search/match.h"

namespace bwtk {

/// The best assignment SearchBest found for a pattern set against the text:
/// the pattern with the fewest-mismatch occurrence, kaori-style.
struct DictionaryBestHit {
  /// Canonical id of the winning pattern, -1 when nothing matched within k.
  int32_t pattern = -1;
  /// Mismatch count of the winning occurrence (-1 when none).
  int32_t mismatches = -1;
  /// True when two *different* (canonical) patterns tie at the best
  /// mismatch count — the read cannot be assigned. `pattern` then holds the
  /// first of the tied patterns encountered.
  bool ambiguous = false;
  /// Smallest text position among the winner's best-count occurrences.
  size_t position = 0;
};

/// Searches a whole PatternSetTrie against one FmIndex. Stateless; safe
/// for concurrent use on a shared index.
class DictionarySearcher {
 public:
  explicit DictionarySearcher(const FmIndex* index) : index_(index) {}

  /// All occurrences of every pattern with at most k mismatches.
  /// result[id] answers trie.pattern(id), position-sorted — byte-identical
  /// to searching each pattern independently. Duplicate patterns (when the
  /// trie allowed them) receive copies of their canonical pattern's hits.
  std::vector<std::vector<Occurrence>> SearchAll(const PatternSetTrie& trie,
                                                 int32_t k,
                                                 SearchStats* stats = nullptr) const;

  /// The kaori assignment walk: the single best-mismatch hit across the
  /// whole set, with the budget capped at the best count found so far (a
  /// strictly shrinking cap prunes far more than SearchAll's fixed k) and
  /// ambiguity detection when two different patterns tie at the best count.
  DictionaryBestHit SearchBest(const PatternSetTrie& trie, int32_t k,
                               SearchStats* stats = nullptr) const;

  const FmIndex& index() const { return *index_; }

 private:
  const FmIndex* index_;
};

}  // namespace bwtk

#endif  // BWTK_DICT_DICTIONARY_SEARCHER_H_
