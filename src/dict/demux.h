// Read demultiplexing, kaori-style: assign each read to the barcode with the
// fewest-mismatch occurrence anywhere in the read. Ties between different
// barcodes make the read ambiguous; no hit within the budget leaves it
// unassigned.
//
// The barcode trie is walked directly at every read offset, as kaori's
// MismatchTrie::search does, with the budget capped at the best count found
// so far: a branch already worse than the best hit can neither win nor tie,
// so it is cut. Reads are tens of bases and a walk touches only the trie
// nodes within the cap of the read's window, so no index is built per read.
// examples/demux_tool.cpp drives this end to end and docs/DICTIONARY.md
// walks the tutorial.

#ifndef BWTK_DICT_DEMUX_H_
#define BWTK_DICT_DEMUX_H_

#include <cstdint>
#include <vector>

#include "alphabet/dna.h"
#include "dict/pattern_set_trie.h"
#include "util/status.h"

namespace bwtk {

struct DemuxOptions {
  /// Largest barcode mismatch count still considered a match.
  int32_t max_mismatches = 1;
};

/// Where one read ended up.
struct DemuxAssignment {
  enum class Outcome : uint8_t {
    kAssigned,    ///< exactly one best barcode within the budget
    kAmbiguous,   ///< two different barcodes tied at the best count
    kUnassigned,  ///< no barcode occurs within the budget
  };
  Outcome outcome = Outcome::kUnassigned;
  /// Barcode id (valid for kAssigned and kAmbiguous — for the latter it is
  /// the lowest of the tied barcode ids); -1 when unassigned.
  int32_t barcode = -1;
  /// Mismatches of the best hit; -1 when unassigned.
  int32_t mismatches = -1;
  /// Smallest read offset of the named barcode's best hit.
  size_t position = 0;
};

/// Assigns every read against the barcode trie. result[i] answers reads[i].
/// Fails with InvalidArgument on a negative budget, or on a read at least
/// as long as the barcodes that holds a code outside a/c/g/t. A read shorter
/// than the barcode length is not an error — it is simply unassigned.
Result<std::vector<DemuxAssignment>> DemuxReads(
    const PatternSetTrie& barcodes,
    const std::vector<std::vector<DnaCode>>& reads,
    const DemuxOptions& options = {});

}  // namespace bwtk

#endif  // BWTK_DICT_DEMUX_H_
