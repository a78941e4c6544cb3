#include "dict/pattern_set_trie.h"

#include <string>
#include <utility>

namespace bwtk {

Result<PatternSetTrie> PatternSetTrie::Build(
    const std::vector<std::vector<DnaCode>>& patterns) {
  PatternSetTrie trie;  // just the root: what an empty set builds
  if (patterns.empty()) return trie;

  trie.length_ = patterns[0].size();
  if (trie.length_ == 0) {
    return Status::InvalidArgument("pattern 0 is empty");
  }
  trie.num_patterns_ = patterns.size();

  for (size_t id = 0; id < patterns.size(); ++id) {
    const std::vector<DnaCode>& pattern = patterns[id];
    if (pattern.size() != trie.length_) {
      return Status::InvalidArgument(
          "pattern " + std::to_string(id) + " has length " +
          std::to_string(pattern.size()) + " but pattern 0 has length " +
          std::to_string(trie.length_) +
          " (a pattern set holds equal-length patterns)");
    }
    for (size_t pos = 0; pos < pattern.size(); ++pos) {
      // Wildcard/sentinel codes have no trie edge; catch them here rather
      // than index out of a node's 4 child slots.
      if (pattern[pos] >= kDnaAlphabetSize) {
        return Status::InvalidArgument(
            "pattern " + std::to_string(id) + " has non-DNA code " +
            std::to_string(static_cast<int>(pattern[pos])) + " at offset " +
            std::to_string(pos));
      }
    }
    int32_t node = trie.root();
    for (size_t depth = 0; depth + 1 < trie.length_; ++depth) {
      const size_t slot = static_cast<size_t>(node) + pattern[depth];
      if (trie.nodes_[slot] < 0) {
        const int32_t child = static_cast<int32_t>(trie.nodes_.size());
        trie.nodes_[slot] = child;
        trie.nodes_.insert(trie.nodes_.end(), kDnaAlphabetSize, -1);
      }
      node = trie.nodes_[slot];
    }
    const size_t leaf_slot =
        static_cast<size_t>(node) + pattern[trie.length_ - 1];
    const int32_t existing = trie.nodes_[leaf_slot];
    if (existing >= 0) {
      return Status::InvalidArgument("pattern " + std::to_string(id) +
                                     " duplicates pattern " +
                                     std::to_string(existing));
    }
    trie.nodes_[leaf_slot] = static_cast<int32_t>(id);
  }
  return trie;
}

Result<PatternSetTrie> PatternSetTrie::Build(
    const std::vector<std::string>& patterns) {
  std::vector<std::vector<DnaCode>> encoded;
  encoded.reserve(patterns.size());
  for (size_t id = 0; id < patterns.size(); ++id) {
    Result<std::vector<DnaCode>> codes = EncodeDna(patterns[id]);
    if (!codes.ok()) {
      return Status::InvalidArgument("pattern " + std::to_string(id) + ": " +
                                     codes.status().message());
    }
    encoded.push_back(std::move(codes).value());
  }
  return Build(encoded);
}

}  // namespace bwtk
