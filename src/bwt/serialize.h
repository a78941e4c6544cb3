// Binary (de)serialization of FM-indexes.
//
// Building the BWT of a genome is the expensive step ("once it is created,
// it can be repeatedly used" — Section V); persisting the index makes that
// amortization real. The format is versioned and checksummed so a truncated
// or foreign file fails with Corruption instead of producing wrong matches.

#ifndef BWTK_BWT_SERIALIZE_H_
#define BWTK_BWT_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/status.h"

namespace bwtk {

/// On-disk format constants shared by writer and reader.
///
/// Version history:
///   1 — initial format: header, BWT words, SA sample bitmap + values,
///       trailing FNV-1a checksum over the BWT words.
///   2 — appends the optional prefix interval table (uint32 q, then the
///       4^q packed {lo,hi} entries when q > 0) between the SA samples and
///       the checksum. q = 0 marks "no table".
/// The reader accepts any version in [kMinSupportedVersion, kVersion]; a
/// version-1 file simply loads with no prefix table. A stream whose SA
/// sample rate is 0 and whose sample sections are empty is the reverse half
/// of a BWTB stream: FmIndex::Load rejects it, and only BiFmIndex::Load
/// reads it.
struct FmIndexFormat {
  static constexpr uint32_t kMagic = 0x4257544b;  // "BWTK"
  static constexpr uint32_t kVersion = 2;
  static constexpr uint32_t kMinSupportedVersion = 1;
};

/// Writes `value`'s bytes as laid out in memory: the fixed-width fields of
/// every index stream (FM, BWTB pair, shard manifest).
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads what WritePod wrote; false once the stream fails (truncation).
template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace bwtk

#endif  // BWTK_BWT_SERIALIZE_H_
