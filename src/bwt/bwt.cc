#include "bwt/bwt.h"

#include <array>
#include <utility>

#include "util/logging.h"

namespace bwtk {

Bwt BwtFromSuffixArray(const std::vector<DnaCode>& text,
                       const std::vector<SaIndex>& sa) {
  BWTK_CHECK_EQ(sa.size(), text.size() + 1);
  // Packed straight from the SA; the sentinel row keeps a 0 placeholder.
  Bwt bwt;
  std::vector<uint64_t> words((sa.size() + 31) / 32, 0);
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i] == 0) {
      bwt.sentinel_row = i;
    } else {
      const DnaCode c = text[static_cast<size_t>(sa[i]) - 1];
      words[i >> 5] |= static_cast<uint64_t>(c & 3) << ((i & 31) * 2);
    }
  }
  bwt.codes = PackedSequence(std::move(words), sa.size());
  return bwt;
}

Result<Bwt> BwtFromText(const std::vector<DnaCode>& text) {
  BWTK_ASSIGN_OR_RETURN(auto sa, BuildSuffixArrayDna(text));
  return BwtFromSuffixArray(text, sa);
}

std::vector<DnaCode> InvertBwt(const Bwt& bwt) {
  const size_t rows = bwt.codes.size();
  BWTK_CHECK_GE(rows, 1u);
  const size_t n = rows - 1;

  // C[c] = number of rows whose first symbol is smaller than c ('$' counts
  // as the smallest).
  std::array<size_t, kDnaAlphabetSize + 1> counts{};  // [0]='$'
  counts[0] = 1;
  for (size_t i = 0; i < rows; ++i) {
    if (i == bwt.sentinel_row) continue;
    ++counts[bwt.codes.at(i) + 1];
  }
  std::array<size_t, kDnaAlphabetSize + 1> c_array{};
  size_t sum = 0;
  for (size_t c = 0; c <= kDnaAlphabetSize; ++c) {
    c_array[c] = sum;
    sum += counts[c];
  }

  // occ_before[i] = rank of L[i] among equal symbols above row i.
  std::vector<SaIndex> occ_before(rows);
  std::array<SaIndex, kDnaAlphabetSize> running{};
  for (size_t i = 0; i < rows; ++i) {
    if (i == bwt.sentinel_row) continue;
    const DnaCode c = bwt.codes.at(i);
    occ_before[i] = running[c]++;
  }

  // Walk LF from the row that ends with the last text character backwards.
  std::vector<DnaCode> text(n);
  size_t row = 0;  // row 0 = "$text", whose L symbol is the last text char
  for (size_t step = n; step-- > 0;) {
    BWTK_CHECK_NE(row, bwt.sentinel_row);
    const DnaCode c = bwt.codes.at(row);
    text[step] = c;
    row = c_array[c + 1] + occ_before[row];
  }
  return text;
}

}  // namespace bwtk
