#include "bidir/bi_fm_index.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <future>
#include <istream>
#include <ostream>
#include <utility>

#include "bwt/bwt.h"
#include "bwt/serialize.h"
#include "search/result_cache.h"
#include "util/logging.h"

namespace bwtk {

namespace {

// FNV-1a over the pair's content fingerprints; mismatched or swapped halves
// fail loudly instead of silently desynchronizing the co-ranges.
uint64_t PairChecksum(uint64_t text_size, uint64_t fwd_version,
                      uint64_t rev_version) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t w : {text_size, fwd_version, rev_version}) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The text a forward half indexes. Its BWT is that of reverse(text)$:
// inverting it yields reverse(text), and reversing that in place gives the
// text.
std::vector<DnaCode> TextOf(const FmIndex& forward) {
  std::vector<DnaCode> text = InvertBwt(forward.bwt());
  std::reverse(text.begin(), text.end());
  return text;
}

// The reverse half's options: no suffix-array samples, because the scheme
// walks locate on the forward half only.
FmIndex::Options ReverseHalfOptions(FmIndex::Options options) {
  options.sa_sample_rate = 0;
  return options;
}

// A q-gram occurs as often read left to right as read right to left, so the
// forward table's range for a key and the reverse table's range for the
// digit-reversed key have the same width.
bool SeedTablesAgree(const PrefixIntervalTable& fwd,
                     const PrefixIntervalTable& rev) {
  const uint32_t q = fwd.q();
  for (uint64_t key = 0; key < PrefixIntervalTable::KeyCount(q); ++key) {
    SaIndex flo = 0, fhi = 0, rlo = 0, rhi = 0;
    fwd.Lookup(key, &flo, &fhi);
    rev.Lookup(BiFmIndex::ReverseKey(key, q), &rlo, &rhi);
    if (fhi - flo != rhi - rlo) return false;
  }
  return true;
}

}  // namespace

BiFmIndex::BiFmIndex(FmIndex fwd, FmIndex rev, PackedSequence text)
    : fwd_(std::move(fwd)), rev_(std::move(rev)), text_(std::move(text)) {
  BWTK_DCHECK_EQ(text_.size(), fwd_.text_size());
}

uint32_t BiFmIndex::SeedTableQ(size_t text_size) {
  if (text_size == 0) return 0;
  const uint32_t log4 =
      static_cast<uint32_t>(std::bit_width(text_size) - 1) / 2;
  return log4 < 2 ? 0 : std::min(PrefixIntervalTable::kMaxQ, log4 - 1);
}

Status BiFmIndex::FitSeedTables() {
  const uint32_t q = SeedTableQ(text_size());
  bool kept = false;
  for (FmIndex* half : {&fwd_, &rev_}) {
    if (half->prefix_table_q() == q) {
      kept = true;
    } else {
      BWTK_RETURN_IF_ERROR(half->RebuildPrefixTable(q));
    }
  }
  // A kept table may come from a file. Its loader checked the entries'
  // bounds and width sum, which two swapped entries still pass; a table
  // built here needs no check.
  if (kept && q > 0 &&
      !SeedTablesAgree(*fwd_.prefix_table(), *rev_.prefix_table())) {
    return Status::Corruption(
        "bidirectional index seed tables disagree on a q-gram's count");
  }
  return Status::OK();
}

Result<BiFmIndex> BiFmIndex::Build(const std::vector<DnaCode>& text,
                                   const Options& options) {
  if (options.prefix_table_q != 0) {
    return Status::InvalidArgument(
        "BiFmIndex picks its own prefix_table_q (SeedTableQ of the text "
        "length); leave Options::prefix_table_q at 0");
  }
  // The reverse half indexes `text` as given (its BWT is that of text$) on a
  // second thread while this one builds the forward half. The future joins
  // that thread on every path out, and get() rethrows what it threw.
  std::future<Result<FmIndex>> rev_build = std::async(
      std::launch::async,
      [&] { return FmIndex::BuildOver(text, ReverseHalfOptions(options)); });
  Result<FmIndex> fwd = FmIndex::Build(text, options);
  Result<FmIndex> rev = rev_build.get();
  if (!fwd.ok()) return fwd.status();
  if (!rev.ok()) return rev.status();
  // Both suffix sorts have returned and freed their scratch, so the tables
  // and the packed text sit under the build's memory peak.
  BiFmIndex index(std::move(fwd).value(), std::move(rev).value(),
                  PackedSequence(text));
  BWTK_RETURN_IF_ERROR(index.FitSeedTables());
  return index;
}

Result<BiFmIndex> BiFmIndex::FromForward(FmIndex forward) {
  Options options = ReverseHalfOptions(forward.options());
  options.prefix_table_q = 0;
  PackedSequence packed;
  Result<FmIndex> rev = [&] {
    // The reverse half indexes the text as it reads.
    const std::vector<DnaCode> text = TextOf(forward);
    packed = PackedSequence(text);
    return FmIndex::BuildOver(text, options);
  }();
  if (!rev.ok()) return rev.status();
  // The unpacked text is freed, so the tables sit under the reverse build's
  // peak.
  BiFmIndex index(std::move(forward), std::move(rev).value(),
                  std::move(packed));
  BWTK_RETURN_IF_ERROR(index.FitSeedTables());
  return index;
}

Status BiFmIndex::Save(std::ostream& out) const {
  WritePod(out, BiFmIndexFormat::kMagic);
  WritePod(out, BiFmIndexFormat::kVersion);
  WritePod(out, static_cast<uint64_t>(fwd_.text_size()));
  BWTK_RETURN_IF_ERROR(fwd_.Save(out));
  BWTK_RETURN_IF_ERROR(rev_.Save(out));
  WritePod(out, PairChecksum(fwd_.text_size(), FmIndexVersion(fwd_),
                             FmIndexVersion(rev_)));
  if (!out) return Status::IoError("bidirectional index write failed");
  return Status::OK();
}

Result<BiFmIndex> BiFmIndex::Load(std::istream& in) {
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, &magic)) {
    return Status::Corruption("truncated bidirectional index file");
  }
  if (magic == FmIndexFormat::kMagic) {
    return Status::Corruption(
        "monolithic FM-index file (magic \"BWTK\"): it lacks the reverse "
        "half; load it with FmIndex::Load for forward-only engines, or "
        "upgrade via BiFmIndex::FromForward");
  }
  if (magic != BiFmIndexFormat::kMagic) {
    return Status::Corruption("bad magic: not a bwtk bidirectional index");
  }
  if (!ReadPod(in, &version) ||
      version < BiFmIndexFormat::kMinSupportedVersion ||
      version > BiFmIndexFormat::kVersion) {
    return Status::Corruption("unsupported bidirectional index version");
  }
  uint64_t text_size = 0;
  if (!ReadPod(in, &text_size)) {
    return Status::Corruption("truncated bidirectional index file");
  }
  BWTK_ASSIGN_OR_RETURN(FmIndex fwd, FmIndex::Load(in));
  BWTK_ASSIGN_OR_RETURN(FmIndex rev, FmIndex::LoadReverseHalf(in));
  uint64_t checksum = 0;
  if (!ReadPod(in, &checksum)) {
    return Status::Corruption("truncated bidirectional index file");
  }
  if (fwd.text_size() != text_size || rev.text_size() != text_size) {
    return Status::Corruption("bidirectional index halves disagree on size");
  }
  if (checksum !=
      PairChecksum(text_size, FmIndexVersion(fwd), FmIndexVersion(rev))) {
    return Status::Corruption("bidirectional index checksum mismatch");
  }
  // A version-1 stream's reverse half carries samples that nothing reads.
  rev.DropSamples();
  // The stream holds no text: it is rebuilt from the checksummed forward
  // half, as FromForward does, so it cannot disagree with the halves.
  PackedSequence text(TextOf(fwd));
  BiFmIndex index(std::move(fwd), std::move(rev), std::move(text));
  BWTK_RETURN_IF_ERROR(index.FitSeedTables());
  return index;
}

Status BiFmIndex::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return Save(out);
}

Result<BiFmIndex> BiFmIndex::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open bidirectional index file: " + path);
  }
  return Load(in);
}

}  // namespace bwtk
