#include "suffix/suffix_array.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/logging.h"

namespace bwtk {

namespace {

constexpr SaIndex kEmpty = -1;

// ---------------------------------------------------------------------------
// SA-IS (Nong, Zhang & Chan, "Two Efficient Algorithms for Linear Time Suffix
// Array Construction") in the layout of the paper's reference code. Besides
// the output array, each recursion level holds one type bit per symbol, and
// a bucket array while it is not recursing: the LMS-substring names and the
// reduced string live in the half of SA that the sorted LMS substrings leave
// unused, and the reduced problem is sorted into the front of the same
// array.
// ---------------------------------------------------------------------------

// One bit per suffix, set when the suffix is S-type (smaller than the suffix
// one position to its right).
class TypeBits {
 public:
  explicit TypeBits(SaIndex n) : words_(static_cast<size_t>(n) / 64 + 1) {}

  bool IsS(SaIndex i) const {
    return (words_[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
  }
  void SetS(SaIndex i) {
    words_[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  }
  // Leftmost-S: an S-type suffix whose left neighbour is L-type.
  bool IsLms(SaIndex i) const { return i > 0 && IsS(i) && !IsS(i - 1); }

 private:
  std::vector<uint64_t> words_;
};

// (*bkt)[c] = first slot of bucket c, or one past its last slot when `ends`.
// Recounts the text each time so a level holds one bucket array, not two.
template <typename Symbol>
void GetBuckets(const Symbol* s, SaIndex n, bool ends,
                std::vector<SaIndex>* bkt) {
  std::fill(bkt->begin(), bkt->end(), 0);
  for (SaIndex i = 0; i < n; ++i) ++(*bkt)[s[i]];
  SaIndex sum = 0;
  for (SaIndex& b : *bkt) {
    sum += b;
    b = ends ? sum : sum - b;
  }
}

// Given LMS suffixes at their bucket ends, induces the order of all L-type
// then all S-type suffixes.
template <typename Symbol>
void InduceSort(const Symbol* s, SaIndex n, const TypeBits& types,
                std::vector<SaIndex>* bkt, SaIndex* sa) {
  GetBuckets(s, n, /*ends=*/false, bkt);
  for (SaIndex i = 0; i < n; ++i) {
    const SaIndex j = sa[i] - 1;
    if (j >= 0 && !types.IsS(j)) sa[(*bkt)[s[j]]++] = j;
  }
  GetBuckets(s, n, /*ends=*/true, bkt);
  for (SaIndex i = n; i-- > 0;) {
    const SaIndex j = sa[i] - 1;
    if (j >= 0 && types.IsS(j)) sa[--(*bkt)[s[j]]] = j;
  }
}

// Sorts the suffixes of s[0, n) into sa[0, n). Requires n >= 1, every symbol
// below `alphabet`, and s[n-1] == 0 as the unique smallest symbol.
template <typename Symbol>
void SaIs(const Symbol* s, SaIndex n, size_t alphabet, SaIndex* sa) {
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  TypeBits types(n);
  types.SetS(n - 1);  // the sentinel; s[n-2] > s[n-1] makes n-2 L-type
  bool is_s = false;  // type of suffix i + 1 on entry to each step
  for (SaIndex i = n - 2; i-- > 0;) {
    is_s = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s);
    if (is_s) types.SetS(i);
  }

  // Stage 1: drop the LMS suffixes into their bucket ends in text order and
  // induce, which sorts the LMS *substrings*.
  {
    std::vector<SaIndex> bkt(alphabet);
    GetBuckets(s, n, /*ends=*/true, &bkt);
    std::fill(sa, sa + n, kEmpty);
    for (SaIndex i = 1; i < n; ++i) {
      if (types.IsLms(i)) sa[--bkt[s[i]]] = i;
    }
    InduceSort(s, n, types, &bkt, sa);
  }

  // Compact the sorted LMS substrings into sa[0, n1). LMS positions are
  // never adjacent, so n1 <= n / 2.
  SaIndex n1 = 0;
  for (SaIndex i = 0; i < n; ++i) {
    if (types.IsLms(sa[i])) sa[n1++] = sa[i];
  }

  // Name the LMS substrings: one name per run of equal substrings (same
  // symbols and types up to and including the next LMS position). The name
  // of the substring at pos goes to sa[n1 + pos / 2]; the slots are distinct
  // because LMS positions are never adjacent, and below n because
  // n1 + (n - 1) / 2 <= n - 1.
  std::fill(sa + n1, sa + n, kEmpty);
  SaIndex names = 0;
  SaIndex prev = kEmpty;
  for (SaIndex i = 0; i < n1; ++i) {
    const SaIndex pos = sa[i];
    bool diff = prev == kEmpty;
    // Types agree up to d, so both substrings end at the same d; the
    // sentinel is unique and LMS, so the scan stays inside the text.
    for (SaIndex d = 0; !diff; ++d) {
      if (s[pos + d] != s[prev + d] ||
          types.IsS(pos + d) != types.IsS(prev + d)) {
        diff = true;
      } else if (d > 0 && types.IsLms(pos + d)) {
        break;
      }
    }
    if (diff) {
      ++names;
      prev = pos;
    }
    sa[n1 + pos / 2] = names - 1;
  }
  // Gather the names, in text order, into the reduced string s1 at the back.
  for (SaIndex i = n - 1, j = n - 1; i >= n1; --i) {
    if (sa[i] >= 0) sa[j--] = sa[i];
  }

  // Stage 2: sort the reduced string into sa1 = sa[0, n1). Its last symbol
  // names the sentinel's substring, 0 and unique, so it meets SaIs's
  // precondition; it recurses only while names repeat.
  SaIndex* sa1 = sa;
  SaIndex* s1 = sa + n - n1;
  if (names < n1) {
    SaIs<SaIndex>(s1, n1, static_cast<size_t>(names), sa1);
  } else {
    for (SaIndex i = 0; i < n1; ++i) sa1[s1[i]] = i;
  }

  // Stage 3: map reduced ranks back to LMS positions (s1 is reused to hold
  // the positions in text order), seed the bucket ends with the LMS
  // suffixes in sorted order, and induce the full order.
  for (SaIndex i = 1, j = 0; i < n; ++i) {
    if (types.IsLms(i)) s1[j++] = i;
  }
  for (SaIndex i = 0; i < n1; ++i) sa1[i] = s1[sa1[i]];
  std::fill(sa + n1, sa + n, kEmpty);
  std::vector<SaIndex> bkt(alphabet);
  GetBuckets(s, n, /*ends=*/true, &bkt);
  // Descending, each suffix moves to a slot at or right of its own, so no
  // unmoved entry is overwritten.
  for (SaIndex i = n1; i-- > 0;) {
    const SaIndex j = sa[i];
    sa[i] = kEmpty;
    sa[--bkt[s[j]]] = j;
  }
  InduceSort(s, n, types, &bkt, sa);
}

// Validates `text`, copies it shifted up by one with a 0 sentinel appended
// (so SaIs's precondition holds), and sorts that copy: the result ranks the
// suffixes of text# with SA[0] == text.size().
template <typename Symbol>
Result<std::vector<SaIndex>> SortShifted(const std::vector<Symbol>& text,
                                         uint32_t alphabet_size) {
  if (text.size() >=
      static_cast<size_t>(std::numeric_limits<SaIndex>::max()) - 1) {
    return Status::InvalidArgument("text too long for 32-bit suffix array");
  }
  std::vector<Symbol> shifted(text.size() + 1);
  for (size_t i = 0; i < text.size(); ++i) {
    if (static_cast<uint32_t>(text[i]) >= alphabet_size) {
      return Status::InvalidArgument(
          "symbol " + std::to_string(text[i]) + " at offset " +
          std::to_string(i) + " outside alphabet of size " +
          std::to_string(alphabet_size));
    }
    shifted[i] = static_cast<Symbol>(text[i] + 1);
  }
  shifted.back() = 0;
  std::vector<SaIndex> sa(shifted.size());
  SaIs(shifted.data(), static_cast<SaIndex>(shifted.size()),
       size_t{alphabet_size} + 1, sa.data());
  return sa;
}

}  // namespace

Result<std::vector<SaIndex>> BuildSuffixArray(
    const std::vector<uint32_t>& text, uint32_t alphabet_size) {
  return SortShifted(text, alphabet_size);
}

Result<std::vector<SaIndex>> BuildSuffixArrayDna(
    const std::vector<DnaCode>& text) {
  return SortShifted(text, kDnaAlphabetSize);
}

std::vector<SaIndex> BuildSuffixArrayNaive(const std::vector<uint32_t>& text) {
  const size_t n = text.size() + 1;
  std::vector<SaIndex> sa(n);
  for (size_t i = 0; i < n; ++i) sa[i] = static_cast<SaIndex>(i);
  std::sort(sa.begin(), sa.end(), [&](SaIndex a, SaIndex b) {
    // Compare suffixes text[a..) and text[b..); the shorter one (which hits
    // the virtual sentinel first) sorts earlier on a tie.
    size_t i = a;
    size_t j = b;
    while (i < text.size() && j < text.size()) {
      if (text[i] != text[j]) return text[i] < text[j];
      ++i;
      ++j;
    }
    return i > j;  // suffix that ran out first (larger start) is smaller
  });
  return sa;
}

std::vector<SaIndex> BuildSuffixArrayNaiveDna(
    const std::vector<DnaCode>& text) {
  std::vector<uint32_t> widened(text.begin(), text.end());
  return BuildSuffixArrayNaive(widened);
}

std::vector<SaIndex> InvertSuffixArray(const std::vector<SaIndex>& sa) {
  std::vector<SaIndex> rank(sa.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    BWTK_CHECK_LT(static_cast<size_t>(sa[i]), sa.size());
    rank[sa[i]] = static_cast<SaIndex>(i);
  }
  return rank;
}

}  // namespace bwtk
