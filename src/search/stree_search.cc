#include "search/stree_search.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/tau_heuristic.h"
#include "util/logging.h"

namespace bwtk {

std::vector<Occurrence> STreeSearch::Search(
    const std::vector<DnaCode>& pattern, int32_t k,
    SearchStats* stats) const {
  BWTK_SCOPED_HIST_TIMER(kHistQueryNanos);
  // Hoisted once; per-node hooks below are a single null check.
  [[maybe_unused]] obs::Trace* const trace = BWTK_TRACE_ACTIVE();
  SearchStats local_stats;
  std::vector<Occurrence> results;
  const size_t m = pattern.size();
  if (m == 0 || m > index_->text_size()) {
    if (stats != nullptr) *stats = local_stats;
    return results;
  }

  std::vector<int32_t> tau;
  if (options_.use_tau) {
    BWTK_TRACE_SPAN(trace, "tau_build");
    tau = ComputeTau(*index_, pattern);
  }

  struct Frame {
    FmIndex::Range range;
    uint32_t depth;       // characters consumed
    int32_t mismatches;
  };
  std::vector<Frame> stack;
  const PrefixIntervalTable* table = index_->prefix_table();
  const uint32_t q = table ? table->q() : 0;
  if (q > 0 && m >= q && k <= PrefixIntervalTable::kMaxSeedMismatches) {
    // Seed at depth q from the table: the surviving depth-q S-tree states
    // are exactly the non-empty ranges of the length-q strings within
    // Hamming distance k of the pattern's q-prefix, so enumerating those
    // variants is result-identical to stepping the first q levels. τ is
    // checked at depth q only — a subset of the checks the stepped walk
    // performs, and τ never prunes a real occurrence, so the match set is
    // unchanged.
    uint64_t hits = 0;
    PrefixIntervalTable::ForEachVariant(
        pattern.data(), q, k, [&](const PrefixIntervalTable::Variant& v) {
          SaIndex lo;
          SaIndex hi;
          if (!table->Lookup(v.key, &lo, &hi)) return;
          ++hits;
          ++local_stats.stree_nodes;
          BWTK_TRACE_NODE(trace, q);
          if (options_.use_tau && k - v.mismatches < tau[q]) {
            ++local_stats.tau_pruned;
            return;
          }
          stack.push_back({{lo, hi}, q, v.mismatches});
        });
    BWTK_METRIC_COUNT2(kCounterPrefixTableHits, hits,
                       kCounterPrefixTableSkippedSteps, hits * q);
    BWTK_TRACE_PREFIX_HITS(trace, hits);
  } else {
    stack.push_back({index_->WholeRange(), 0, 0});
  }
  BWTK_SCOPED_TIMER(kPhaseTreeTraversal);
  BWTK_TRACE_SPAN(trace, "tree_traversal");
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.depth == m) {
      ++local_stats.completed_paths;
      for (const size_t pos : index_->Locate(frame.range, m)) {
        results.push_back({pos, frame.mismatches});
      }
      continue;
    }
    const DnaCode expected = pattern[frame.depth];
    FmIndex::Range children[kDnaAlphabetSize];
    index_->ExtendAll(frame.range, children);
    local_stats.extend_calls += kDnaAlphabetSize;
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      const FmIndex::Range next = children[c];
      if (next.empty()) continue;
      ++local_stats.stree_nodes;
      BWTK_TRACE_NODE(trace, frame.depth + 1);
      const int32_t mismatches = frame.mismatches + (c != expected ? 1 : 0);
      if (mismatches > k) {
        ++local_stats.budget_pruned;
        continue;
      }
      if (options_.use_tau && k - mismatches < tau[frame.depth + 1]) {
        ++local_stats.tau_pruned;
        continue;
      }
      stack.push_back({next, frame.depth + 1, mismatches});
    }
  }

  NormalizeOccurrences(&results);
  // Bulk-flushed rank work; the traversal loop itself carries no metrics
  // hooks (see FmIndex::Extend). One ExtendAll = two RankAlls per
  // kDnaAlphabetSize-sized extend_calls increment.
  const uint64_t extend_alls = local_stats.extend_calls / kDnaAlphabetSize;
  BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                     kCounterRankAllCalls, 2 * extend_alls);
  BWTK_METRIC_OBSERVE(kHistHitsPerQuery, results.size());
  if (stats != nullptr) *stats = local_stats;
  return results;
}

}  // namespace bwtk
