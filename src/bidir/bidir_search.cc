#include "bidir/bidir_search.h"

#include <algorithm>

#include "bwt/prefix_table.h"
#include "obs/metrics.h"
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
void BuildSteps(const SchemeSearch& search,
                const std::vector<uint32_t>& boundaries,
                std::vector<Step>* steps) {
  const size_t p = search.order.size();
  steps->clear();
  uint32_t win_lo = boundaries[search.order[0]];
  uint32_t win_hi = win_lo;
  for (size_t rank = 0; rank < p; ++rank) {
    const uint8_t piece = search.order[rank];
    const uint16_t upper = search.upper[rank];
    if (boundaries[piece] >= win_hi) {
      for (uint32_t pos = boundaries[piece]; pos < boundaries[piece + 1];
           ++pos) {
        steps->push_back({pos, true, upper, 0});
      }
      win_hi = boundaries[piece + 1];
      if (rank == 0) win_lo = boundaries[piece];
    } else {
      for (uint32_t pos = win_lo; pos-- > boundaries[piece];) {
        steps->push_back({pos, false, upper, 0});
      }
      win_lo = boundaries[piece];
    }
    steps->back().lower = search.lower[rank];
  }
  BWTK_DCHECK_EQ(steps->size(), boundaries.back());
}

struct Frame {
  BiFmIndex::BiRange range;
  uint32_t step = 0;
  int32_t mismatches = 0;
};

}  // namespace

struct BidirWalkSet::Walk {
  enum class Phase : uint8_t {
    kFree,    // no walk in the slot
    kBegin,   // started; the first turn picks the scheme
    kSeed,    // seed entries prefetched; the next turn looks them up
    kFrames,  // popping frames off the stack
  };
  Phase phase = Phase::kFree;

  // The query.
  const BidirectionalSearch* engine = nullptr;
  const BiFmIndex* index = nullptr;
  const DnaCode* pattern = nullptr;
  uint32_t m = 0;
  int32_t k = 0;
  // A query walk normalizes its hits and flushes per-query metrics at the
  // end; ExecuteSearch's walk of one search does neither.
  bool whole_query = true;
  const SearchScheme* scheme = nullptr;
  std::optional<SearchScheme> trivial;  // SchemeFor's Trivial fallback
  size_t search = 0;                    // the search being walked
  size_t search_end = 0;
  obs::Trace* trace = nullptr;

  // The current search; rebuilt per search, capacity kept across walks.
  std::vector<uint32_t> boundaries;
  std::vector<Step> steps;
  std::vector<Frame> stack;

  // Results.
  std::vector<Occurrence> hits;
  SearchStats stats;
  uint64_t left_extends = 0;
  uint64_t right_extends = 0;

  // Clock readings: query_nanos runs from the first turn to the last
  // (metrics builds); a traced walk also sums its own turns.
  uint64_t begin_ns = 0;
  uint64_t first_turn_ns = 0;
  uint64_t own_ns = 0;

  // Prefetches the rank blocks the walk's next frame extends.
  void PrefetchNext() const {
    const Frame& next = stack.back();
    if (next.step < m) {
      index->PrefetchExtend(next.range, steps[next.step].right);
    }
  }
};

BidirWalkSet::BidirWalkSet(size_t width) : walks_(width) {
  BWTK_CHECK(width >= 1);
}

BidirWalkSet::~BidirWalkSet() = default;

size_t BidirWalkSet::width() const { return walks_.size(); }

size_t BidirWalkSet::FreeSlot() const {
  for (size_t slot = 0; slot < walks_.size(); ++slot) {
    if (walks_[slot].phase == Walk::Phase::kFree) return slot;
  }
  BWTK_CHECK(false) << "no free walk slot";
  return kNoSlot;
}

void BidirWalkSet::Start(size_t slot, const BidirectionalSearch& engine,
                         const std::vector<DnaCode>& pattern, int32_t k,
                         obs::Trace* trace) {
  Walk& w = walks_[slot];
  BWTK_CHECK(w.phase == Walk::Phase::kFree);
  w.phase = Walk::Phase::kBegin;
  w.engine = &engine;
  w.index = &engine.index();
  w.pattern = pattern.data();
  w.m = static_cast<uint32_t>(pattern.size());
  w.k = k;
  w.whole_query = true;
  w.scheme = nullptr;
  w.trace = trace;
  w.hits.clear();
  w.stats = SearchStats{};
  w.left_extends = 0;
  w.right_extends = 0;
  w.first_turn_ns = 0;
  w.own_ns = 0;
  ++in_flight_;
}

void BidirWalkSet::StartSearch(size_t slot, const BidirectionalSearch& engine,
                               const std::vector<DnaCode>& pattern,
                               const SearchScheme& scheme,
                               size_t search_index, obs::Trace* trace) {
  BWTK_CHECK(search_index < scheme.searches().size());
  BWTK_CHECK(scheme.num_pieces() <= pattern.size());
  Start(slot, engine, pattern, scheme.k(), trace);
  Walk& w = walks_[slot];
  w.whole_query = false;
  w.scheme = &scheme;
  w.search = search_index;
  w.search_end = search_index + 1;
}

size_t BidirWalkSet::Next() {
  if (in_flight_ == 0) return kNoSlot;
  BWTK_SCOPED_TIMER(kPhaseBidirTraversal);
  if (in_flight_ == 1) {
    // A lone walk's turns follow one another, so one pair of clock
    // readings times all of them.
    size_t slot = 0;
    while (walks_[slot].phase == Walk::Phase::kFree) ++slot;
    Walk& w = walks_[slot];
    const uint64_t t0 = w.trace != nullptr ? obs::TraceClockNanos() : 0;
    if (w.first_turn_ns == 0) w.first_turn_ns = t0;
    while (!Turn<false>(w)) {
    }
    if (w.trace != nullptr) w.own_ns += obs::TraceClockNanos() - t0;
    Finish(w);
    return slot;
  }
  for (;;) {
    const size_t slot = cursor_;
    cursor_ = cursor_ + 1 == walks_.size() ? 0 : cursor_ + 1;
    Walk& w = walks_[slot];
    if (w.phase == Walk::Phase::kFree) continue;
    bool done;
    if (w.trace == nullptr) {
      done = Turn<true>(w);
    } else {
      const uint64_t t0 = obs::TraceClockNanos();
      if (w.first_turn_ns == 0) w.first_turn_ns = t0;
      done = Turn<true>(w);
      w.own_ns += obs::TraceClockNanos() - t0;
    }
    if (done) {
      Finish(w);
      return slot;
    }
  }
}

template <bool kPrefetchNext>
bool BidirWalkSet::Turn(Walk& w) {
  switch (w.phase) {
    case Walk::Phase::kFrames:
      break;
    case Walk::Phase::kBegin:
      if (BWTK_METRICS_ENABLED) w.begin_ns = obs::TraceClockNanos();
      if (w.scheme == nullptr) {
        if (w.m == 0 || w.m > w.index->text_size() || w.k < 0) return true;
        // A window can hold at most m mismatches, so larger budgets are the
        // same query; clamping keeps the scheme tables small for degenerate
        // k.
        const int32_t budget = std::min(w.k, static_cast<int32_t>(w.m));
        w.scheme = w.engine->SchemeFor(budget, w.m, &w.trivial);
        w.search = 0;
        w.search_end = w.scheme->searches().size();
      }
      SearchScheme::PieceBoundaries(w.m, w.scheme->num_pieces(),
                                    &w.boundaries);
      BeginSearch(w);
      return false;
    case Walk::Phase::kSeed:
      SeedFrames(w);
      if (w.stack.empty()) return EndSearch(w);
      if constexpr (kPrefetchNext) w.PrefetchNext();
      return false;
    case Walk::Phase::kFree:
      BWTK_CHECK(false) << "turn of a free walk slot";
      return true;
  }

  const Frame frame = w.stack.back();
  w.stack.pop_back();
  if (frame.step == w.m) {
    ++w.stats.completed_paths;
    for (const size_t pos : w.index->Locate(frame.range, w.m)) {
      w.hits.push_back({pos, frame.mismatches});
    }
  } else {
    const Step& step = w.steps[frame.step];
    BiFmIndex::BiRange children[kDnaAlphabetSize];
    if (step.right) {
      w.index->ExtendRightAll(frame.range, children);
      ++w.right_extends;
    } else {
      w.index->ExtendLeftAll(frame.range, children);
      ++w.left_extends;
    }
    w.stats.extend_calls += kDnaAlphabetSize;
    const DnaCode expected = w.pattern[step.pos];
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      const BiFmIndex::BiRange& next = children[c];
      if (next.empty()) continue;
      ++w.stats.stree_nodes;
      BWTK_TRACE_NODE(w.trace, frame.step + 1);
      const int32_t mismatches = frame.mismatches + (c != expected ? 1 : 0);
      if (mismatches > step.upper) {
        ++w.stats.budget_pruned;
        continue;
      }
      if (mismatches < step.lower) {
        ++w.stats.tau_pruned;
        continue;
      }
      w.stack.push_back({next, frame.step + 1, mismatches});
    }
  }
  if (w.stack.empty()) return EndSearch(w);
  if constexpr (kPrefetchNext) w.PrefetchNext();
  return false;
}

// Sets up search w.search: its steps, then either the prefetch half of its
// seed step or the root frame.
//
// The first piece is seeded from the paired q-gram tables: the surviving
// depth-q states of a search are exactly the non-empty co-ranges of the
// length-q strings within Hamming distance upper[0] of the piece's q-prefix,
// looked up forward-keyed in the forward table and reverse-keyed in the
// reverse table. Every BiFmIndex tables both halves at one q.
void BidirWalkSet::BeginSearch(Walk& w) {
  const SchemeSearch& search = w.scheme->searches()[w.search];
  BuildSteps(search, w.boundaries, &w.steps);
  const uint32_t first_begin = w.boundaries[search.order[0]];
  const uint32_t first_len = w.boundaries[search.order[0] + 1] - first_begin;
  const PrefixIntervalTable* fwd_table = w.index->forward().prefix_table();
  const PrefixIntervalTable* rev_table = w.index->reverse().prefix_table();
  const uint32_t q = fwd_table ? fwd_table->q() : 0;
  BWTK_DCHECK(q == 0 || (rev_table != nullptr && rev_table->q() == q));
  if (q == 0 || first_len < q ||
      search.upper[0] > PrefixIntervalTable::kMaxSeedMismatches) {
    w.stack.push_back({w.index->WholeRange(), 0, 0});
    w.phase = Walk::Phase::kFrames;
    return;
  }
  fwd_table->ForEachVariant(
      w.pattern + first_begin, static_cast<int32_t>(search.upper[0]),
      [&](const PrefixIntervalTable::Variant& v) {
        fwd_table->Prefetch(v.key);
        rev_table->Prefetch(BiFmIndex::ReverseKey(v.key, q));
      });
  w.phase = Walk::Phase::kSeed;
}

// The lookup half of the seed step: pushes one frame per surviving variant.
void BidirWalkSet::SeedFrames(Walk& w) {
  const SchemeSearch& search = w.scheme->searches()[w.search];
  const uint32_t first_begin = w.boundaries[search.order[0]];
  const PrefixIntervalTable* fwd_table = w.index->forward().prefix_table();
  const PrefixIntervalTable* rev_table = w.index->reverse().prefix_table();
  const uint32_t q = fwd_table->q();
  // steps[q-1].lower is 0 unless the seed consumed the whole first piece,
  // in which case the piece-boundary lower bound applies.
  const uint16_t lower = w.steps[q - 1].lower;
  uint64_t table_hits = 0;
  fwd_table->ForEachVariant(
      w.pattern + first_begin, static_cast<int32_t>(search.upper[0]),
      [&](const PrefixIntervalTable::Variant& v) {
        SaIndex flo;
        SaIndex fhi;
        if (!fwd_table->Lookup(v.key, &flo, &fhi)) return;
        SaIndex rlo;
        SaIndex rhi;
        const bool rev_hit =
            rev_table->Lookup(BiFmIndex::ReverseKey(v.key, q), &rlo, &rhi);
        // Both tables count the same occurrences of the variant gram.
        BWTK_DCHECK(rev_hit);
        BWTK_DCHECK_EQ(fhi - flo, rhi - rlo);
        (void)rev_hit;
        ++table_hits;
        ++w.stats.stree_nodes;
        BWTK_TRACE_NODE(w.trace, q);
        if (v.mismatches < lower) {
          ++w.stats.tau_pruned;
          return;
        }
        w.stack.push_back({{{flo, fhi}, {rlo, rhi}}, q, v.mismatches});
      });
  BWTK_METRIC_COUNT2(kCounterPrefixTableHits, table_hits,
                     kCounterPrefixTableSkippedSteps, table_hits * q);
  BWTK_TRACE_PREFIX_HITS(w.trace, table_hits);
  w.phase = Walk::Phase::kFrames;
}

// Called when search w.search has no frames left: starts the next search,
// or reports the walk done.
bool BidirWalkSet::EndSearch(Walk& w) {
  if (++w.search == w.search_end) return true;
  BeginSearch(w);
  return false;
}

// Wraps up the walk Next() is about to return: normalizes a query's hits
// and flushes its counters.
void BidirWalkSet::Finish(Walk& w) {
  w.phase = Walk::Phase::kFree;
  --in_flight_;
  if (w.trace != nullptr) {
    w.trace->AddSpan("bidir_scheme_walk", w.first_turn_ns, w.own_ns);
  }
  BWTK_METRIC_COUNT2(kCounterBidirLeftExtends, w.left_extends,
                     kCounterBidirRightExtends, w.right_extends);
  if (!w.whole_query) return;
  if (w.scheme != nullptr) {
    NormalizeOccurrences(&w.hits);
    if (!w.scheme->vector_disjoint()) {
      w.hits.erase(std::unique(w.hits.begin(), w.hits.end()), w.hits.end());
    }
    const uint64_t extend_alls = w.stats.extend_calls / kDnaAlphabetSize;
    BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                       kCounterRankAllCalls, 2 * extend_alls);
    BWTK_METRIC_COUNT_N(kCounterBidirSearches, w.scheme->searches().size());
    BWTK_METRIC_OBSERVE(kHistHitsPerQuery, w.hits.size());
  }
  BWTK_METRIC_OBSERVE(kHistQueryNanos, obs::TraceClockNanos() - w.begin_ns);
}

std::vector<Occurrence> BidirWalkSet::TakeHits(size_t slot) {
  return std::move(walks_[slot].hits);
}

const SearchStats& BidirWalkSet::stats(size_t slot) const {
  return walks_[slot].stats;
}

uint64_t BidirWalkSet::own_nanos(size_t slot) const {
  return walks_[slot].own_ns;
}

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
  BidirWalkSet walks(1);
  walks.StartSearch(0, *this, pattern, scheme, search_index,
                    BWTK_TRACE_ACTIVE());
  walks.Next();
  const std::vector<Occurrence> found = walks.TakeHits(0);
  hits->insert(hits->end(), found.begin(), found.end());
  if (stats != nullptr) *stats += walks.stats(0);
}

std::vector<Occurrence> BidirectionalSearch::Search(
    const std::vector<DnaCode>& pattern, int32_t k,
    SearchStats* stats) const {
  BidirWalkSet walks(1);
  walks.Start(0, *this, pattern, k, BWTK_TRACE_ACTIVE());
  walks.Next();
  if (stats != nullptr) *stats = walks.stats(0);
  return walks.TakeHits(0);
}

}  // namespace bwtk
