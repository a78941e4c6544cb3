#include "bidir/bidir_search.h"

#include <algorithm>

#include "bwt/prefix_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace bwtk {

namespace {

/// One character consumption of a search, precomputed per (search, m):
/// which pattern position, in which direction, under which bounds. The
/// lower bound is non-zero only on the step completing a piece (cumulative
/// lower bounds are checked at piece boundaries).
struct Step {
  uint32_t pos = 0;
  bool right = true;
  uint16_t upper = 0;
  uint16_t lower = 0;
};

/// Flattens one scheme search into its m per-character steps. The first
/// piece is consumed left to right (which is what lets the q-gram tables
/// seed it); every later piece's direction is forced by where it sits
/// relative to the already-covered window.
std::vector<Step> BuildSteps(const SchemeSearch& search,
                             const std::vector<uint32_t>& boundaries) {
  const size_t p = search.order.size();
  std::vector<Step> steps;
  steps.reserve(boundaries.back());
  uint32_t win_lo = boundaries[search.order[0]];
  uint32_t win_hi = win_lo;
  for (size_t rank = 0; rank < p; ++rank) {
    const uint8_t piece = search.order[rank];
    const uint16_t upper = search.upper[rank];
    if (boundaries[piece] >= win_hi) {
      for (uint32_t pos = boundaries[piece]; pos < boundaries[piece + 1];
           ++pos) {
        steps.push_back({pos, true, upper, 0});
      }
      win_hi = boundaries[piece + 1];
      if (rank == 0) win_lo = boundaries[piece];
    } else {
      for (uint32_t pos = win_lo; pos-- > boundaries[piece];) {
        steps.push_back({pos, false, upper, 0});
      }
      win_lo = boundaries[piece];
    }
    steps.back().lower = search.lower[rank];
  }
  BWTK_DCHECK_EQ(steps.size(), boundaries.back());
  return steps;
}

struct Frame {
  BiFmIndex::BiRange range;
  uint32_t step = 0;
  int32_t mismatches = 0;
};

}  // namespace

BidirectionalSearch::BidirectionalSearch(const BiFmIndex* index,
                                         const BidirOptions& options)
    : index_(index), options_(options) {
  BWTK_CHECK(index_ != nullptr);
}

const SearchScheme* BidirectionalSearch::SchemeFor(
    int32_t k, size_t m, std::optional<SearchScheme>* storage) const {
  if (options_.scheme != nullptr && options_.scheme->k() == k &&
      options_.scheme->num_pieces() <= m) {
    return options_.scheme;
  }
  // The pigeonhole fallback wants k+1 pieces; past the piece cap (or a
  // pattern too short to partition) the plain one-piece descent is the
  // only executable scheme.
  if (k > 4 && static_cast<uint64_t>(k) + 1 > std::min<uint64_t>(64, m)) {
    storage->emplace(SearchScheme::Trivial(k));
    return &**storage;
  }
  {
    std::lock_guard<std::mutex> lock(scheme_mu_);
    auto it = scheme_cache_.find(k);
    if (it == scheme_cache_.end()) {
      it = scheme_cache_.emplace(k, SearchScheme::ForBudget(k)).first;
    }
    if (it->second.num_pieces() <= m) return &it->second;
  }
  storage->emplace(SearchScheme::Trivial(k));
  return &**storage;
}

void BidirectionalSearch::ExecuteSearch(const std::vector<DnaCode>& pattern,
                                        const SearchScheme& scheme,
                                        size_t search_index,
                                        std::vector<Occurrence>* hits,
                                        SearchStats* stats) const {
  [[maybe_unused]] obs::Trace* const trace = BWTK_TRACE_ACTIVE();
  SearchStats local_stats;
  const uint32_t m = static_cast<uint32_t>(pattern.size());
  BWTK_CHECK(search_index < scheme.searches().size());
  BWTK_CHECK(scheme.num_pieces() <= m);
  const SchemeSearch& search = scheme.searches()[search_index];
  const std::vector<uint32_t> boundaries =
      SearchScheme::PieceBoundaries(m, scheme.num_pieces());
  const std::vector<Step> steps = BuildSteps(search, boundaries);
  const uint32_t first_begin = boundaries[search.order[0]];
  const uint32_t first_len = boundaries[search.order[0] + 1] - first_begin;

  uint64_t left_extends = 0;
  uint64_t right_extends = 0;
  std::vector<Frame> stack;

  // Seed the first piece from the paired q-gram tables: the surviving
  // depth-q states of this search are exactly the non-empty co-ranges of
  // the length-q strings within Hamming distance upper[0] of the piece's
  // q-prefix, looked up forward-keyed in the forward table and
  // reverse-keyed in the reverse table. Every BiFmIndex tables both halves
  // at one q.
  const PrefixIntervalTable* fwd_table = index_->forward().prefix_table();
  const PrefixIntervalTable* rev_table = index_->reverse().prefix_table();
  const uint32_t q = fwd_table ? fwd_table->q() : 0;
  BWTK_DCHECK(q == 0 || (rev_table != nullptr && rev_table->q() == q));
  const bool seedable =
      q > 0 && first_len >= q &&
      search.upper[0] <= PrefixIntervalTable::kMaxSeedMismatches;
  if (seedable) {
    uint64_t table_hits = 0;
    fwd_table->ForEachVariant(
        pattern.data() + first_begin, static_cast<int32_t>(search.upper[0]),
        [&](const PrefixIntervalTable::Variant& v) {
          SaIndex flo;
          SaIndex fhi;
          if (!fwd_table->Lookup(v.key, &flo, &fhi)) return;
          SaIndex rlo;
          SaIndex rhi;
          const bool rev_hit = rev_table->Lookup(
              BiFmIndex::ReverseKey(v.key, q), &rlo, &rhi);
          // Both tables count the same occurrences of the variant gram.
          BWTK_DCHECK(rev_hit);
          BWTK_DCHECK_EQ(fhi - flo, rhi - rlo);
          (void)rev_hit;
          ++table_hits;
          ++local_stats.stree_nodes;
          BWTK_TRACE_NODE(trace, q);
          // steps[q-1].lower is 0 unless the seed consumed the whole first
          // piece, in which case the piece-boundary lower bound applies.
          if (v.mismatches < steps[q - 1].lower) {
            ++local_stats.tau_pruned;
            return;
          }
          stack.push_back({{{flo, fhi}, {rlo, rhi}}, q, v.mismatches});
        });
    BWTK_METRIC_COUNT2(kCounterPrefixTableHits, table_hits,
                       kCounterPrefixTableSkippedSteps, table_hits * q);
    BWTK_TRACE_PREFIX_HITS(trace, table_hits);
  } else {
    stack.push_back({index_->WholeRange(), 0, 0});
  }

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.step == m) {
      ++local_stats.completed_paths;
      for (const size_t pos : index_->Locate(frame.range, m)) {
        hits->push_back({pos, frame.mismatches});
      }
      continue;
    }
    const Step& step = steps[frame.step];
    BiFmIndex::BiRange children[kDnaAlphabetSize];
    if (step.right) {
      index_->ExtendRightAll(frame.range, children);
      ++right_extends;
    } else {
      index_->ExtendLeftAll(frame.range, children);
      ++left_extends;
    }
    local_stats.extend_calls += kDnaAlphabetSize;
    const DnaCode expected = pattern[step.pos];
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      const BiFmIndex::BiRange& next = children[c];
      if (next.empty()) continue;
      ++local_stats.stree_nodes;
      BWTK_TRACE_NODE(trace, frame.step + 1);
      const int32_t mismatches = frame.mismatches + (c != expected ? 1 : 0);
      if (mismatches > step.upper) {
        ++local_stats.budget_pruned;
        continue;
      }
      if (mismatches < step.lower) {
        ++local_stats.tau_pruned;
        continue;
      }
      stack.push_back({next, frame.step + 1, mismatches});
    }
  }

  BWTK_METRIC_COUNT2(kCounterBidirLeftExtends, left_extends,
                     kCounterBidirRightExtends, right_extends);
  if (stats != nullptr) *stats += local_stats;
}

std::vector<Occurrence> BidirectionalSearch::Search(
    const std::vector<DnaCode>& pattern, int32_t k,
    SearchStats* stats) const {
  BWTK_SCOPED_HIST_TIMER(kHistQueryNanos);
  SearchStats local_stats;
  std::vector<Occurrence> results;
  const size_t m = pattern.size();
  if (m == 0 || m > index_->text_size() || k < 0) {
    if (stats != nullptr) *stats = local_stats;
    return results;
  }
  // A window can hold at most m mismatches, so larger budgets are the same
  // query; clamping keeps the scheme tables small for degenerate k.
  const int32_t budget = std::min(k, static_cast<int32_t>(m));

  std::optional<SearchScheme> storage;
  const SearchScheme* scheme = SchemeFor(budget, m, &storage);

  {
    BWTK_SCOPED_TIMER(kPhaseBidirTraversal);
    [[maybe_unused]] obs::Trace* const trace = BWTK_TRACE_ACTIVE();
    BWTK_TRACE_SPAN(trace, "bidir_scheme_walk");
    for (size_t si = 0; si < scheme->searches().size(); ++si) {
      ExecuteSearch(pattern, *scheme, si, &results, &local_stats);
    }
  }

  NormalizeOccurrences(&results);
  if (!scheme->vector_disjoint()) {
    results.erase(std::unique(results.begin(), results.end()), results.end());
  }
  const uint64_t extend_alls = local_stats.extend_calls / kDnaAlphabetSize;
  BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                     kCounterRankAllCalls, 2 * extend_alls);
  BWTK_METRIC_COUNT_N(kCounterBidirSearches, scheme->searches().size());
  BWTK_METRIC_OBSERVE(kHistHitsPerQuery, results.size());
  if (stats != nullptr) *stats = local_stats;
  return results;
}

}  // namespace bwtk
