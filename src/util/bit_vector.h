// Succinct bit vector with O(1) rank support. Used by the FM-index to mark
// suffix-array sample rows.

#ifndef BWTK_UTIL_BIT_VECTOR_H_
#define BWTK_UTIL_BIT_VECTOR_H_

#include <cstdint>
#include <vector>

#include "util/bit_utils.h"
#include "util/logging.h"

namespace bwtk {

/// Fixed-size bit vector; call FinalizeRank() after the last Set() to enable
/// Rank1() queries.
class BitVectorRank {
 public:
  BitVectorRank() = default;

  explicit BitVectorRank(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Set(size_t pos) {
    BWTK_DCHECK_LT(pos, size_);
    words_[pos >> 6] |= uint64_t{1} << (pos & 63);
    finalized_ = false;
  }

  bool Get(size_t pos) const {
    BWTK_DCHECK_LT(pos, size_);
    return (words_[pos >> 6] >> (pos & 63)) & 1;
  }

  /// Builds the per-word cumulative popcount directory.
  void FinalizeRank() {
    rank_blocks_.resize(words_.size() + 1);
    uint64_t total = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      rank_blocks_[w] = total;
      total += Popcount64(words_[w]);
    }
    rank_blocks_[words_.size()] = total;
    finalized_ = true;
  }

  /// Number of set bits in [0, pos). Requires FinalizeRank() after mutation.
  uint64_t Rank1(size_t pos) const {
    BWTK_DCHECK(finalized_);
    BWTK_DCHECK_LE(pos, size_);
    const size_t w = pos >> 6;
    uint64_t count = rank_blocks_[w];
    const unsigned rem = pos & 63;
    if (rem != 0) {
      count += Popcount64(words_[w] & ((uint64_t{1} << rem) - 1));
    }
    return count;
  }

  /// Hints the cache that Get(pos) and Rank1(pos) come next: prefetches the
  /// bit word and its rank word. Force-inlined: gcc deletes the calls to an
  /// out-of-line copy of a body that only prefetches (see
  /// OccTable::Prefetch).
  [[gnu::always_inline]] void Prefetch(size_t pos) const {
    __builtin_prefetch(words_.data() + (pos >> 6));
    __builtin_prefetch(rank_blocks_.data() + (pos >> 6));
  }

  uint64_t OneCount() const {
    BWTK_DCHECK(finalized_);
    return rank_blocks_.back();
  }

  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>* mutable_words() { return &words_; }
  void set_size(size_t size) { size_ = size; }

  size_t MemoryUsage() const {
    return (words_.capacity() + rank_blocks_.capacity()) * sizeof(uint64_t);
  }

 private:
  size_t size_ = 0;
  bool finalized_ = false;
  std::vector<uint64_t> words_;
  std::vector<uint64_t> rank_blocks_;
};

}  // namespace bwtk

#endif  // BWTK_UTIL_BIT_VECTOR_H_
