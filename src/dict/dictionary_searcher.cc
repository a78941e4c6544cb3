#include "dict/dictionary_searcher.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bwtk {

namespace {

/// One state of the joint trie ∩ FM-index descent. Compared to the
/// single-pattern S-tree frame this adds the trie node the consumed
/// characters lead to; `node` is a pattern id (not a node offset) exactly
/// when depth == trie.length(), which the walk never stores — completion is
/// handled at push time.
struct Frame {
  int32_t node;
  FmIndex::Range range;
  uint32_t depth;
  int32_t mismatches;
};

/// Invokes fn(value, gram) for every depth-q trie path, where gram[0..q) is
/// the path's character sequence and `value` is the slot content reached —
/// a node offset when q < trie.length(), the pattern id when q == length().
template <typename Fn>
void WalkTrieToDepth(const PatternSetTrie& trie, int32_t node, uint32_t depth,
                     uint32_t q, DnaCode* gram, Fn& fn) {
  if (depth == q) {
    fn(node, static_cast<const DnaCode*>(gram));
    return;
  }
  for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
    const int32_t child = trie.Child(node, c);
    if (child < 0) continue;
    gram[depth] = c;
    WalkTrieToDepth(trie, child, depth + 1, q, gram, fn);
  }
}

}  // namespace

std::vector<std::vector<Occurrence>> DictionarySearcher::SearchAll(
    const PatternSetTrie& trie, int32_t k, SearchStats* stats) const {
  BWTK_SCOPED_HIST_TIMER(kHistQueryNanos);
  [[maybe_unused]] obs::Trace* const trace = BWTK_TRACE_ACTIVE();
  SearchStats local_stats;
  std::vector<std::vector<Occurrence>> results(trie.num_patterns());
  const size_t m = trie.length();
  if (trie.num_patterns() == 0 || m == 0 || m > index_->text_size() ||
      k < 0) {
    if (stats != nullptr) *stats = local_stats;
    return results;
  }

  std::vector<Frame> stack;
  uint64_t shared_extends = 0;
  const PrefixIntervalTable* table = index_->prefix_table();
  const uint32_t q = table ? table->q() : 0;
  if (q > 0 && m >= q && k <= PrefixIntervalTable::kMaxSeedMismatches) {
    // Seed every depth-q trie path from the table at once: per path this is
    // the single-pattern seeding of stree_search.cc (the variant set of the
    // path's q-gram is exactly the depth-q states a k-mismatch walk of that
    // prefix reaches), so per-pattern byte-identity is preserved.
    BWTK_TRACE_SPAN(trace, "dict_seed");
    uint64_t hits = 0;
    std::vector<DnaCode> gram(q);
    auto seed_path = [&](int32_t value, const DnaCode* path_gram) {
      table->ForEachVariant(
          path_gram, k, [&](const PrefixIntervalTable::Variant& v) {
            SaIndex lo;
            SaIndex hi;
            if (!table->Lookup(v.key, &lo, &hi)) return;
            ++hits;
            ++local_stats.stree_nodes;
            BWTK_TRACE_NODE(trace, q);
            if (q == m) {
              // The trie is exactly q deep: `value` is the pattern id and
              // the variant range is already a completed path.
              ++local_stats.completed_paths;
              for (const size_t pos : index_->Locate({lo, hi}, m)) {
                results[value].push_back({pos, v.mismatches});
              }
            } else {
              stack.push_back({value, {lo, hi}, q, v.mismatches});
            }
          });
    };
    WalkTrieToDepth(trie, trie.root(), 0, q, gram.data(), seed_path);
    BWTK_METRIC_COUNT2(kCounterPrefixTableHits, hits,
                       kCounterPrefixTableSkippedSteps, hits * q);
    BWTK_TRACE_PREFIX_HITS(trace, hits);
  } else {
    stack.push_back({trie.root(), index_->WholeRange(), 0, 0});
  }

  {
    BWTK_SCOPED_TIMER(kPhaseTreeTraversal);
    BWTK_TRACE_SPAN(trace, "tree_traversal");
    FmIndex::Range children[kDnaAlphabetSize];
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      // One rank pass answers for every pattern sharing this prefix — the
      // amortization the engine exists for.
      index_->ExtendAll(frame.range, children);
      local_stats.extend_calls += kDnaAlphabetSize;
      const bool leaf_depth = frame.depth + 1 == m;
      int live_edges = 0;
      for (DnaCode e = 0; e < kDnaAlphabetSize; ++e) {
        const int32_t next_node = trie.Child(frame.node, e);
        if (next_node < 0) continue;
        ++live_edges;
        for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
          const FmIndex::Range next = children[c];
          if (next.empty()) continue;
          ++local_stats.stree_nodes;
          BWTK_TRACE_NODE(trace, frame.depth + 1);
          const int32_t mismatches =
              frame.mismatches + (c != e ? 1 : 0);
          if (mismatches > k) {
            ++local_stats.budget_pruned;
            continue;
          }
          if (leaf_depth) {
            ++local_stats.completed_paths;
            for (const size_t pos : index_->Locate(next, m)) {
              results[next_node].push_back({pos, mismatches});
            }
          } else {
            stack.push_back({next_node, next, frame.depth + 1, mismatches});
          }
        }
      }
      if (live_edges >= 2) ++shared_extends;
    }
  }

  uint64_t total_hits = 0;
  for (std::vector<Occurrence>& r : results) {
    NormalizeOccurrences(&r);
    total_hits += r.size();
  }
  for (size_t id = 0; id < results.size(); ++id) {
    const int32_t canonical = trie.canonical_of(static_cast<int32_t>(id));
    if (canonical != static_cast<int32_t>(id)) {
      results[id] = results[canonical];
      total_hits += results[id].size();
    }
  }

  const uint64_t extend_alls = local_stats.extend_calls / kDnaAlphabetSize;
  BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                     kCounterRankAllCalls, 2 * extend_alls);
  BWTK_METRIC_COUNT2(kCounterDictSearches, 1, kCounterDictPatterns,
                     trie.num_patterns());
  BWTK_METRIC_COUNT_N(kCounterDictSharedExtends, shared_extends);
  BWTK_METRIC_OBSERVE(kHistHitsPerQuery, total_hits);
  if (stats != nullptr) *stats = local_stats;
  return results;
}

DictionaryBestHit DictionarySearcher::SearchBest(const PatternSetTrie& trie,
                                                 int32_t k,
                                                 SearchStats* stats) const {
  BWTK_SCOPED_HIST_TIMER(kHistQueryNanos);
  [[maybe_unused]] obs::Trace* const trace = BWTK_TRACE_ACTIVE();
  SearchStats local_stats;
  DictionaryBestHit best;
  const size_t m = trie.length();
  if (trie.num_patterns() == 0 || m == 0 || m > index_->text_size() ||
      k < 0) {
    if (stats != nullptr) *stats = local_stats;
    return best;
  }

  // The cap shrinks to the best mismatch count found so far (kaori's
  // refinement): a state already worse than the best complete hit can
  // neither win nor tie, so it is pruned. Ties at the cap must still be
  // explored — they are what ambiguity detection observes.
  int32_t cap = k;
  auto complete = [&](int32_t pattern_id, FmIndex::Range range,
                      int32_t mismatches) {
    ++local_stats.completed_paths;
    size_t min_pos = static_cast<size_t>(-1);
    for (const size_t pos : index_->Locate(range, m)) {
      min_pos = std::min(min_pos, pos);
    }
    if (best.pattern < 0 || mismatches < best.mismatches) {
      best = {pattern_id, mismatches, false, min_pos};
      cap = mismatches;
    } else if (mismatches == best.mismatches) {
      if (pattern_id != best.pattern) {
        best.ambiguous = true;
      } else {
        best.position = std::min(best.position, min_pos);
      }
    }
  };

  std::vector<Frame> stack;
  uint64_t shared_extends = 0;
  const PrefixIntervalTable* table = index_->prefix_table();
  const uint32_t q = table ? table->q() : 0;
  if (q > 0 && m >= q && k <= PrefixIntervalTable::kMaxSeedMismatches) {
    BWTK_TRACE_SPAN(trace, "dict_seed");
    uint64_t hits = 0;
    std::vector<DnaCode> gram(q);
    auto seed_path = [&](int32_t value, const DnaCode* path_gram) {
      table->ForEachVariant(
          path_gram, k, [&](const PrefixIntervalTable::Variant& v) {
            SaIndex lo;
            SaIndex hi;
            if (!table->Lookup(v.key, &lo, &hi)) return;
            ++hits;
            ++local_stats.stree_nodes;
            BWTK_TRACE_NODE(trace, q);
            if (v.mismatches > cap) {
              ++local_stats.budget_pruned;
              return;
            }
            if (q == m) {
              complete(value, {lo, hi}, v.mismatches);
            } else {
              stack.push_back({value, {lo, hi}, q, v.mismatches});
            }
          });
    };
    WalkTrieToDepth(trie, trie.root(), 0, q, gram.data(), seed_path);
    BWTK_METRIC_COUNT2(kCounterPrefixTableHits, hits,
                       kCounterPrefixTableSkippedSteps, hits * q);
    BWTK_TRACE_PREFIX_HITS(trace, hits);
  } else {
    stack.push_back({trie.root(), index_->WholeRange(), 0, 0});
  }

  {
    BWTK_SCOPED_TIMER(kPhaseTreeTraversal);
    BWTK_TRACE_SPAN(trace, "tree_traversal");
    FmIndex::Range children[kDnaAlphabetSize];
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      if (frame.mismatches > cap) {  // cap may have shrunk since the push
        ++local_stats.budget_pruned;
        continue;
      }
      index_->ExtendAll(frame.range, children);
      local_stats.extend_calls += kDnaAlphabetSize;
      const bool leaf_depth = frame.depth + 1 == m;
      int live_edges = 0;
      for (DnaCode e = 0; e < kDnaAlphabetSize; ++e) {
        const int32_t next_node = trie.Child(frame.node, e);
        if (next_node < 0) continue;
        ++live_edges;
        for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
          const FmIndex::Range next = children[c];
          if (next.empty()) continue;
          ++local_stats.stree_nodes;
          BWTK_TRACE_NODE(trace, frame.depth + 1);
          const int32_t mismatches =
              frame.mismatches + (c != e ? 1 : 0);
          if (mismatches > cap) {
            ++local_stats.budget_pruned;
            continue;
          }
          if (leaf_depth) {
            complete(next_node, next, mismatches);
          } else {
            stack.push_back({next_node, next, frame.depth + 1, mismatches});
          }
        }
      }
      if (live_edges >= 2) ++shared_extends;
    }
  }

  const uint64_t extend_alls = local_stats.extend_calls / kDnaAlphabetSize;
  BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                     kCounterRankAllCalls, 2 * extend_alls);
  BWTK_METRIC_COUNT2(kCounterDictSearches, 1, kCounterDictPatterns,
                     trie.num_patterns());
  BWTK_METRIC_COUNT_N(kCounterDictSharedExtends, shared_extends);
  BWTK_METRIC_OBSERVE(kHistHitsPerQuery, best.pattern >= 0 ? 1 : 0);
  if (stats != nullptr) *stats = local_stats;
  return best;
}

}  // namespace bwtk
