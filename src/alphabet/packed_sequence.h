// 2-bit packed DNA sequence.
//
// PackedSequence is the storage format for genome-scale texts (and for the
// BWT array itself): 2 bits/base, word-aligned so the rank structure in
// bwt/occ_table.h can popcount directly over its words. The paper stores
// BWT(s) the same way ("we use 2 bits to represent a character").

#ifndef BWTK_ALPHABET_PACKED_SEQUENCE_H_
#define BWTK_ALPHABET_PACKED_SEQUENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alphabet/dna.h"
#include "util/logging.h"

namespace bwtk {

/// A DNA sequence stored at 2 bits per base.
class PackedSequence {
 public:
  PackedSequence() = default;

  /// Builds from unpacked codes.
  explicit PackedSequence(const std::vector<DnaCode>& codes);

  /// Adopts raw words (deserialization). `size` is in bases; `words` must
  /// hold at least ceil(size/32) entries.
  PackedSequence(std::vector<uint64_t> words, size_t size)
      : size_(size), words_(std::move(words)) {
    BWTK_CHECK_GE(words_.size() * 32, size_);
  }

  PackedSequence(const PackedSequence&) = default;
  PackedSequence& operator=(const PackedSequence&) = default;
  PackedSequence(PackedSequence&&) = default;
  PackedSequence& operator=(PackedSequence&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Code of the base at `pos`. Requires pos < size().
  DnaCode at(size_t pos) const {
    BWTK_DCHECK_LT(pos, size_);
    return static_cast<DnaCode>((words_[pos >> 5] >> ((pos & 31) * 2)) & 3);
  }

  /// Overwrites the base at `pos`.
  void set(size_t pos, DnaCode code) {
    BWTK_DCHECK_LT(pos, size_);
    const size_t w = pos >> 5;
    const unsigned shift = (pos & 31) * 2;
    words_[w] = (words_[w] & ~(uint64_t{3} << shift)) |
                (static_cast<uint64_t>(code & 3) << shift);
  }

  /// Appends one base.
  void push_back(DnaCode code);

  /// Unpacks [pos, pos+len) into a fresh code vector (clamped to size()).
  std::vector<DnaCode> Slice(size_t pos, size_t len) const;

  /// Full unpacked copy.
  std::vector<DnaCode> Unpack() const { return Slice(0, size_); }

  /// ASCII (lowercase) rendering, mainly for tests and small outputs.
  std::string ToString() const;

  /// Hints the cache that bases [pos, pos + len) are read next: prefetches
  /// every cache line of the words that hold them. Requires len >= 1 and
  /// pos + len <= size(). Force-inlined: gcc deletes the calls to an
  /// out-of-line copy of a body that only prefetches (see
  /// OccTable::Prefetch).
  [[gnu::always_inline]] void Prefetch(size_t pos, size_t len) const {
    constexpr uintptr_t kLine = 64;
    uintptr_t line =
        reinterpret_cast<uintptr_t>(words_.data() + (pos >> 5)) & ~(kLine - 1);
    const uintptr_t last =
        reinterpret_cast<uintptr_t>(words_.data() + ((pos + len - 1) >> 5));
    for (; line <= last; line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  /// Underlying words; 32 bases per word, base i in bits [2(i%32), 2(i%32)+1]
  /// of word i/32. Exposed for the rank structure.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bwtk

#endif  // BWTK_ALPHABET_PACKED_SEQUENCE_H_
