// A trie over a set of equal-length DNA patterns (barcodes, adapters,
// probes), built once and walked by DemuxReads (dict/demux.h) at every read
// offset, so that every shared pattern prefix is compared once per offset.
//
// The layout follows kaori's MismatchTrie: one flat int32_t array, four
// child slots per node, root at offset 0. A slot holds -1 when the edge is
// absent; at every depth below the last it holds the byte offset of the
// child node, and at the last depth it holds the id of the pattern that
// ends there (all patterns have the same length, so a slot's meaning is
// determined by its depth alone — there are no interior leaves).
//
// Duplicate patterns are rejected at build time with an error naming both
// colliding pattern indices: a read matching a duplicated barcode could
// never be assigned.

#ifndef BWTK_DICT_PATTERN_SET_TRIE_H_
#define BWTK_DICT_PATTERN_SET_TRIE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alphabet/dna.h"
#include "util/status.h"

namespace bwtk {

class PatternSetTrie {
 public:
  /// Builds the trie from 2-bit-coded patterns. All patterns must be
  /// non-empty, distinct and share one length; violations yield
  /// InvalidArgument naming the offending pattern index. An empty pattern
  /// list is valid and produces an empty trie.
  static Result<PatternSetTrie> Build(
      const std::vector<std::vector<DnaCode>>& patterns);

  /// ASCII convenience overload: each pattern is validated by EncodeDna, so
  /// ambiguous bases ('N', IUPAC codes, ...) are rejected here with an
  /// error naming the pattern index and the offending character — the trie
  /// stores only the 4-letter alphabet.
  static Result<PatternSetTrie> Build(const std::vector<std::string>& patterns);

  /// Shared length of every pattern (0 for the empty set).
  size_t length() const { return length_; }
  /// Number of patterns the trie was built from.
  size_t num_patterns() const { return num_patterns_; }
  /// Trie nodes allocated (≥ 1: the root always exists).
  size_t node_count() const { return nodes_.size() / kDnaAlphabetSize; }

  /// Offset of the root node.
  int32_t root() const { return 0; }

  /// Child slot of `node` for symbol `c`: -1 when absent; otherwise the
  /// child node offset, or — when `node` sits at depth length()-1 — the
  /// id of the pattern ending through that edge.
  int32_t Child(int32_t node, DnaCode c) const {
    return nodes_[static_cast<size_t>(node) + c];
  }

 private:
  /// An empty trie: length 0, no patterns, just the root.
  PatternSetTrie() : nodes_(kDnaAlphabetSize, -1) {}

  size_t length_ = 0;
  size_t num_patterns_ = 0;
  /// Flat node pool: node i occupies nodes_[i .. i+3] (offsets, not ids,
  /// so Child() is one load with no multiply).
  std::vector<int32_t> nodes_;
};

}  // namespace bwtk

#endif  // BWTK_DICT_PATTERN_SET_TRIE_H_
