#include "dict/demux.h"

#include <string>

namespace bwtk {

namespace {

// One read's walk state, carried across its offsets.
struct ReadWalk {
  const PatternSetTrie& trie;
  const DnaCode* read;
  size_t offset = 0;  // the read window being walked
  int32_t cap;        // the budget: k, then the best count found so far
  DemuxAssignment best;

  // A barcode ended `mismatches` away from the window at `offset`. Offsets
  // are walked in increasing order, so the first hit that sets or joins the
  // best count for a barcode is that barcode's smallest offset.
  void Record(int32_t barcode, int32_t mismatches) {
    if (best.barcode < 0 || mismatches < best.mismatches) {
      best = {DemuxAssignment::Outcome::kAssigned, barcode, mismatches,
              offset};
      cap = mismatches;
    } else if (barcode != best.barcode) {  // a tie at the best count
      best.outcome = DemuxAssignment::Outcome::kAmbiguous;
      if (barcode < best.barcode) {
        best.barcode = barcode;
        best.position = offset;
      }
    }
  }

  // Depth-first over the children of `node`, which sits `depth` bases into
  // the window. A branch above the cap is cut; a branch at the cap is
  // walked, because its ties decide ambiguity and the lowest tied id.
  void Walk(int32_t node, size_t depth, int32_t mismatches) {
    const DnaCode base = read[offset + depth];
    const bool last = depth + 1 == trie.length();
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      const int32_t child = trie.Child(node, c);
      if (child < 0) continue;
      const int32_t count = mismatches + (c != base ? 1 : 0);
      if (count > cap) continue;
      if (last) {
        Record(child, count);
      } else {
        Walk(child, depth + 1, count);
      }
    }
  }
};

}  // namespace

Result<std::vector<DemuxAssignment>> DemuxReads(
    const PatternSetTrie& barcodes,
    const std::vector<std::vector<DnaCode>>& reads,
    const DemuxOptions& options) {
  if (options.max_mismatches < 0) {
    return Status::InvalidArgument("max_mismatches must be >= 0, got " +
                                   std::to_string(options.max_mismatches));
  }
  std::vector<DemuxAssignment> assignments(reads.size());
  const size_t length = barcodes.length();
  if (barcodes.num_patterns() == 0 || length == 0) {
    return assignments;  // every read stays unassigned
  }
  for (size_t i = 0; i < reads.size(); ++i) {
    const std::vector<DnaCode>& read = reads[i];
    if (read.size() < length) continue;  // cannot contain a barcode
    for (size_t pos = 0; pos < read.size(); ++pos) {
      // A code without a trie edge would index past a node's four slots.
      if (read[pos] >= kDnaAlphabetSize) {
        return Status::InvalidArgument(
            "read " + std::to_string(i) + " has non-DNA code " +
            std::to_string(static_cast<int>(read[pos])) + " at offset " +
            std::to_string(pos));
      }
    }
    ReadWalk walk{barcodes, read.data(), 0, options.max_mismatches, {}};
    for (; walk.offset + length <= read.size(); ++walk.offset) {
      walk.Walk(barcodes.root(), 0, 0);
    }
    assignments[i] = walk.best;
  }
  return assignments;
}

}  // namespace bwtk
