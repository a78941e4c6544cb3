#include "bwt/fm_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace bwtk {

Result<FmIndex> FmIndex::Build(const std::vector<DnaCode>& text,
                               const Options& options) {
  if (options.sa_sample_rate == 0) {
    return Status::InvalidArgument("sa_sample_rate must be positive");
  }
  // Index the reversed text so search steps consume the pattern in order.
  return BuildOver(std::vector<DnaCode>(text.rbegin(), text.rend()), options);
}

Result<FmIndex> FmIndex::BuildOver(const std::vector<DnaCode>& sequence,
                                   const Options& options) {
  BWTK_SCOPED_TIMER(kPhaseIndexBuild);
  if (options.prefix_table_q > PrefixIntervalTable::kMaxQ) {
    return Status::InvalidArgument(
        "prefix_table_q must be at most " +
        std::to_string(PrefixIntervalTable::kMaxQ) + ", got " +
        std::to_string(options.prefix_table_q));
  }
  FmIndex index;
  index.n_ = sequence.size();
  index.options_ = options;

  BWTK_ASSIGN_OR_RETURN(auto sa, BuildSuffixArrayDna(sequence));
  index.bwt_ = std::make_unique<Bwt>(BwtFromSuffixArray(sequence, sa));

  // Sample the suffix array before discarding it; a reverse half (rate 0)
  // keeps no samples.
  const uint32_t rate = options.sa_sample_rate;
  index.sampled_rows_ = BitVectorRank(rate == 0 ? 0 : sa.size());
  for (size_t row = 0; rate != 0 && row < sa.size(); ++row) {
    if (static_cast<uint32_t>(sa[row]) % rate == 0) {
      index.sampled_rows_.Set(row);
      index.sa_samples_.push_back(sa[row]);
    }
  }
  index.sampled_rows_.FinalizeRank();
  // Trimmed to the samples, so MemoryUsage (which counts capacity) reads
  // the same for a built index as for a loaded one. Reserving the count
  // before the loop instead raised kmbench map_reads' peak RSS
  // (EXPERIMENTS.md, "Suffix-array samples trimmed").
  index.sa_samples_.shrink_to_fit();

  BWTK_RETURN_IF_ERROR(index.FinishConstruction());
  if (options.prefix_table_q > 0) {
    BWTK_ASSIGN_OR_RETURN(
        auto table, PrefixIntervalTable::Build(index.occ_,
                                               index.first_row_.data(),
                                               options.prefix_table_q));
    index.prefix_table_ =
        std::make_unique<PrefixIntervalTable>(std::move(table));
  }
  return index;
}

Status FmIndex::RebuildPrefixTable(uint32_t q) {
  if (q > PrefixIntervalTable::kMaxQ) {
    return Status::InvalidArgument(
        "prefix_table_q must be at most " +
        std::to_string(PrefixIntervalTable::kMaxQ) + ", got " +
        std::to_string(q));
  }
  if (q == 0) {
    prefix_table_.reset();
    options_.prefix_table_q = 0;
    return Status::OK();
  }
  // Built from the live rank structure exactly as Build() does, so the
  // upgraded index is indistinguishable from one built with this q.
  BWTK_ASSIGN_OR_RETURN(
      auto table, PrefixIntervalTable::Build(occ_, first_row_.data(), q));
  prefix_table_ = std::make_unique<PrefixIntervalTable>(std::move(table));
  options_.prefix_table_q = q;
  return Status::OK();
}

Status FmIndex::FinishConstruction() {
  BWTK_ASSIGN_OR_RETURN(occ_, OccTable::Build(bwt_.get(),
                                              options_.checkpoint_rate,
                                              options_.rank_kernel));
  // first_row_: cumulative symbol counts, offset by 1 for the sentinel row.
  SaIndex sum = 1;
  for (unsigned c = 0; c < kDnaAlphabetSize; ++c) {
    first_row_[c] = sum;
    sum += static_cast<SaIndex>(occ_.Total(static_cast<DnaCode>(c)));
  }
  first_row_[kDnaAlphabetSize] = sum;
  if (static_cast<size_t>(sum) != rows()) {
    return Status::Corruption("symbol totals do not cover the BWT rows");
  }
  return Status::OK();
}

FmIndex::Range FmIndex::MatchForward(
    const std::vector<DnaCode>& pattern) const {
  Range range = WholeRange();
  size_t i = 0;
  const uint32_t q = prefix_table_q();
  if (q > 0 && pattern.size() >= q) {
    SaIndex lo;
    SaIndex hi;
    if (prefix_table_->Lookup(PrefixIntervalTable::PackKey(pattern.data(), q),
                              &lo, &hi)) {
      range = {lo, hi};
      i = q;
      BWTK_METRIC_COUNT2(kCounterPrefixTableHits, 1,
                         kCounterPrefixTableSkippedSteps, q);
    }
    // On a miss the q-gram is absent, so fall through to stepping from
    // scratch: the walk stops at the same empty range the unaccelerated
    // loop would return, keeping the result byte-identical.
  }
  uint64_t steps = 0;
  for (; i < pattern.size(); ++i) {
    range = Extend(range, pattern[i]);
    ++steps;
    if (range.empty()) break;
  }
  BWTK_METRIC_COUNT2(kCounterExtendCalls, steps, kCounterRankCalls, 2 * steps);
  return range;
}

void FmIndex::DropSamples() {
  options_.sa_sample_rate = 0;
  sampled_rows_ = BitVectorRank(0);
  sampled_rows_.FinalizeRank();
  sa_samples_ = std::vector<SaIndex>();
}

size_t FmIndex::WalkToSample(SaIndex row, uint64_t* lf_steps) const {
  BWTK_CHECK(options_.sa_sample_rate != 0)
      << "locate on an index without suffix-array samples";
  size_t at = static_cast<size_t>(row);
  size_t steps = 0;
  while (!LocateStep(&at)) ++steps;
  *lf_steps += steps;
  return Sample(at) + steps;
}

size_t FmIndex::SuffixArrayValue(SaIndex row) const {
  uint64_t lf_steps = 0;
  const size_t value = WalkToSample(row, &lf_steps);
  BWTK_METRIC_COUNT2(kCounterLfSteps, lf_steps, kCounterRankCalls, lf_steps);
  return value;
}

std::vector<size_t> FmIndex::Locate(Range range, size_t depth) const {
  std::vector<size_t> positions;
  if (range.empty()) return positions;
  BWTK_SCOPED_TIMER(kPhaseLocate);
  BWTK_METRIC_COUNT(kCounterLocateCalls);
  positions.reserve(static_cast<size_t>(range.count()));
  uint64_t lf_steps = 0;
  for (SaIndex row = range.lo; row < range.hi; ++row) {
    const size_t p = WalkToSample(row, &lf_steps);
    // Row matches `depth` characters starting at position p of the reversed
    // text; in the original text the occurrence starts at n - depth - p.
    BWTK_DCHECK_LE(p + depth, n_);
    positions.push_back(n_ - depth - p);
  }
  BWTK_METRIC_COUNT2(kCounterLfSteps, lf_steps, kCounterRankCalls, lf_steps);
  return positions;
}

size_t FmIndex::MemoryUsage() const {
  return bwt_->codes.MemoryUsage() + occ_.MemoryUsage() +
         sampled_rows_.MemoryUsage() +
         sa_samples_.capacity() * sizeof(SaIndex) +
         (prefix_table_ ? prefix_table_->MemoryUsage() : 0);
}

}  // namespace bwtk
