// Suffix array construction.
//
// Two constructions are provided:
//  * BuildSuffixArray      — SA-IS (Nong, Zhang & Chan), linear time and the
//                            workhorse for genome-scale indexing. The paper
//                            builds BWT(s) from the suffix array of s
//                            (Section III.B, equation (3)); this is that
//                            substrate.
//  * BuildSuffixArrayNaive — comparison sort, O(n^2 log n) worst case; kept
//                            as the oracle for property tests.
//
// Convention: for a text of length n the returned array has length n + 1 and
// ranks the suffixes of text#  where '#' is a virtual sentinel strictly
// smaller than every symbol. SA[0] == n always (the empty suffix/sentinel).

#ifndef BWTK_SUFFIX_SUFFIX_ARRAY_H_
#define BWTK_SUFFIX_SUFFIX_ARRAY_H_

#include <cstdint>
#include <vector>

#include "alphabet/dna.h"
#include "util/status.h"

namespace bwtk {

/// Index type for suffix arrays; int32 supports texts up to 2^31-2 symbols,
/// which covers every genome in the paper's Table 1 at half the memory of
/// int64.
using SaIndex = int32_t;

/// Builds the suffix array of `text` (symbols in [0, alphabet_size)) with
/// SA-IS. Returns InvalidArgument if a symbol is out of range or the text is
/// longer than SaIndex can address.
///
/// Workspace: besides the returned array, the sort holds one copy of the
/// text in the symbol type (shifted up by one to make room for the
/// sentinel), one type bit per symbol at each recursion level, and one
/// bucket array at a time (alphabet_size + 1 entries at the top level, one
/// per distinct LMS-substring name below). The LMS names and every reduced
/// string live inside the returned array.
Result<std::vector<SaIndex>> BuildSuffixArray(const std::vector<uint32_t>& text,
                                              uint32_t alphabet_size);

/// SA-IS over a DNA code sequence (alphabet size 4). The shifted copy is one
/// byte per base, so the peak is about 5.4 bytes per base, the 4-byte output
/// included.
Result<std::vector<SaIndex>> BuildSuffixArrayDna(
    const std::vector<DnaCode>& text);

/// Oracle construction by direct suffix comparison. Small inputs only.
std::vector<SaIndex> BuildSuffixArrayNaive(const std::vector<uint32_t>& text);

/// Oracle construction for DNA codes.
std::vector<SaIndex> BuildSuffixArrayNaiveDna(const std::vector<DnaCode>& text);

/// Inverse permutation: rank[SA[i]] = i. Input must be a permutation of
/// 0..SA.size()-1.
std::vector<SaIndex> InvertSuffixArray(const std::vector<SaIndex>& sa);

}  // namespace bwtk

#endif  // BWTK_SUFFIX_SUFFIX_ARRAY_H_
