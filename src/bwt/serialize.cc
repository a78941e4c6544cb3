#include "bwt/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "bwt/fm_index.h"

namespace bwtk {

namespace {

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  WritePod(out, static_cast<uint64_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* values) {
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return false;
  // Reject absurd sizes before allocating (corrupt length field).
  if (count > (uint64_t{1} << 40) / sizeof(T)) return false;
  values->resize(count);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

// FNV-1a over the structural fields, so bit rot in the payload is caught.
uint64_t HashWords(const std::vector<uint64_t>& words, uint64_t seed) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const uint64_t w : words) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

// Friend of FmIndex; performs the actual field-level IO.
class FmIndexSerializer {
 public:
  static Status Save(const FmIndex& index, std::ostream& out) {
    WritePod(out, FmIndexFormat::kMagic);
    WritePod(out, FmIndexFormat::kVersion);
    WritePod(out, static_cast<uint64_t>(index.n_));
    WritePod(out, index.options_.checkpoint_rate);
    WritePod(out, index.options_.sa_sample_rate);
    WritePod(out, static_cast<uint64_t>(index.bwt_->sentinel_row));
    WritePod(out, static_cast<uint64_t>(index.bwt_->codes.size()));
    WriteVector(out, index.bwt_->codes.words());
    WriteVector(out, index.sampled_rows_.words());
    WriteVector(out, index.sa_samples_);
    // Format v2: the optional prefix table rides between the SA samples and
    // the checksum; q = 0 means none.
    const uint32_t prefix_q =
        index.prefix_table_ ? index.prefix_table_->q() : 0;
    WritePod(out, prefix_q);
    if (prefix_q > 0) WriteVector(out, index.prefix_table_->entries());
    const uint64_t checksum =
        HashWords(index.bwt_->codes.words(), index.n_);
    WritePod(out, checksum);
    if (!out) return Status::IoError("FM-index write failed");
    return Status::OK();
  }

  // `require_samples` is false only for the reverse half of a BWTB stream
  // (sa_sample_rate 0, empty sample sections): every engine that loads a
  // plain FM-index file locates on it.
  static Result<FmIndex> Load(std::istream& in, bool require_samples) {
    uint32_t magic = 0;
    uint32_t version = 0;
    if (!ReadPod(in, &magic) || magic != FmIndexFormat::kMagic) {
      return Status::Corruption("bad magic: not a bwtk FM-index file");
    }
    if (!ReadPod(in, &version) ||
        version < FmIndexFormat::kMinSupportedVersion ||
        version > FmIndexFormat::kVersion) {
      return Status::Corruption("unsupported FM-index version");
    }
    FmIndex index;
    uint64_t n = 0;
    uint64_t sentinel_row = 0;
    uint64_t bwt_size = 0;
    std::vector<uint64_t> bwt_words;
    std::vector<uint64_t> sample_mark_words;
    if (!ReadPod(in, &n) || !ReadPod(in, &index.options_.checkpoint_rate) ||
        !ReadPod(in, &index.options_.sa_sample_rate) ||
        !ReadPod(in, &sentinel_row) || !ReadPod(in, &bwt_size) ||
        !ReadVector(in, &bwt_words) || !ReadVector(in, &sample_mark_words) ||
        !ReadVector(in, &index.sa_samples_)) {
      return Status::Corruption("truncated FM-index file");
    }
    uint32_t prefix_q = 0;
    std::vector<uint64_t> prefix_entries;
    if (version >= 2) {
      if (!ReadPod(in, &prefix_q)) {
        return Status::Corruption("truncated FM-index file");
      }
      if (prefix_q > 0 && !ReadVector(in, &prefix_entries)) {
        return Status::Corruption("truncated FM-index file");
      }
    }
    uint64_t checksum = 0;
    if (!ReadPod(in, &checksum) || checksum != HashWords(bwt_words, n)) {
      return Status::Corruption("FM-index checksum mismatch");
    }
    if (bwt_size != n + 1 || sentinel_row >= bwt_size ||
        bwt_words.size() * 32 < bwt_size) {
      return Status::Corruption("inconsistent FM-index geometry");
    }
    const bool sampled = index.options_.sa_sample_rate != 0;
    if (require_samples && !sampled) {
      return Status::Corruption(
          "FM-index stream holds no suffix-array samples (the reverse half "
          "of a bidirectional index)");
    }
    index.n_ = n;
    index.bwt_ = std::make_unique<Bwt>();
    index.bwt_->codes = PackedSequence(std::move(bwt_words), bwt_size);
    index.bwt_->sentinel_row = sentinel_row;
    index.sampled_rows_ = BitVectorRank(sampled ? bwt_size : 0);
    if (sample_mark_words.size() != index.sampled_rows_.words().size()) {
      return Status::Corruption("inconsistent SA sample bitmap");
    }
    *index.sampled_rows_.mutable_words() = std::move(sample_mark_words);
    index.sampled_rows_.FinalizeRank();
    if (index.sampled_rows_.OneCount() != index.sa_samples_.size()) {
      return Status::Corruption("SA sample count mismatch");
    }
    BWTK_RETURN_IF_ERROR(index.FinishConstruction());
    if (prefix_q > 0) {
      BWTK_ASSIGN_OR_RETURN(
          auto table, PrefixIntervalTable::FromParts(
                          prefix_q, std::move(prefix_entries), index.n_));
      index.prefix_table_ =
          std::make_unique<PrefixIntervalTable>(std::move(table));
      index.options_.prefix_table_q = prefix_q;
    }
    return index;
  }
};

Status FmIndex::Save(std::ostream& out) const {
  return FmIndexSerializer::Save(*this, out);
}

Result<FmIndex> FmIndex::Load(std::istream& in) {
  return FmIndexSerializer::Load(in, /*require_samples=*/true);
}

Result<FmIndex> FmIndex::LoadReverseHalf(std::istream& in) {
  return FmIndexSerializer::Load(in, /*require_samples=*/false);
}

Status FmIndex::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return Save(out);
}

Result<FmIndex> FmIndex::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open FM-index file: " + path);
  return Load(in);
}

}  // namespace bwtk
