#include "search/algorithm_a.h"

#include <algorithm>
#include <array>
#include <optional>

#include "mismatch/kangaroo.h"
#include "mismatch/mismatch_array.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/bump_arena.h"
#include "search/epoch_map.h"
#include "search/mtree.h"
#include "search/tau_heuristic.h"
#include "util/logging.h"

namespace bwtk {

namespace {

constexpr int32_t kNoChild = -1;

// A node of the memoized search DAG. Children depend only on the rank range
// (one search() step per symbol), so every distinct pair <x, [α, β]> is
// expanded exactly once per Search() call — the role of the paper's hash
// table (EpochMap, search/epoch_map.h).
struct DagNode {
  FmIndex::Range range;
  std::array<int32_t, kDnaAlphabetSize> child{kNoChild, kNoChild, kNoChild,
                                              kNoChild};
  int32_t chain_id = -1;
  uint8_t child_count = 0;
  bool expanded = false;
};

// A maximal single-continuation run below a DAG node, with its mismatch
// array recorded against the alignment of the first visit. Corresponds to
// the paths through a repeated S-tree node whose mismatch information
// Algorithm A derives instead of re-searching.
//
// The record is a pure view: node ids and symbols live at [begin, begin +
// length) of the scratch's shared chain_nodes/chain_symbols arenas, the
// 1-based mismatch offsets (the path's B_l array, exhaustive over the whole
// chain) at [mm_begin, mm_begin + mm_count) of chain_mms. Chains are built
// strictly one at a time, so a walk appends to the arena tails and either
// commits the run or truncates back to its marks — no per-chain heap blocks.
struct ChainRec {
  int32_t first_alignment = 0;  // pattern position of the first chain char
  uint32_t begin = 0;
  uint32_t length = 0;
  uint32_t mm_begin = 0;
  uint32_t mm_count = 0;
};

// One S-tree traversal frame.
struct Frame {
  int32_t node;
  uint32_t depth;  // characters consumed; next char compared to r[depth]
  int32_t mismatches;
  int32_t mnode;  // current M-tree node
};

}  // namespace

// The buffers one Search call needs, owned across calls so capacity is
// reused. Reset() invalidates contents without releasing memory: the hash
// tables clear by epoch bump (O(1)), the bump arenas by truncation, and the
// R_ij slot pool keeps its inner arrays' capacity.
struct AlgorithmAScratch::Impl {
  std::vector<DagNode> dag;
  EpochMap node_of_range{1 << 16};

  // Chain store: records + three shared arenas (see ChainRec).
  BumpPool<ChainRec> chains;
  BumpPool<int32_t> chain_nodes;
  BumpPool<DnaCode> chain_symbols;
  BumpPool<int32_t> chain_mms;

  // R_ij cache: flat open-addressing index over a slot pool, replacing the
  // former std::unordered_map (per-entry allocation + pointer-chasing
  // probes on the merge hot path). Slots [0, rij_used) are live; a reused
  // slot's vector keeps its capacity.
  EpochMap rij_index{1 << 8};
  std::vector<MismatchArray> rij_pool;
  size_t rij_used = 0;

  std::optional<PatternLcp> pattern_lcp;
  MTree mtree;
  std::vector<Frame> stack;
  std::vector<int32_t> tau;

  void Reset() {
    dag.clear();
    node_of_range.Clear();
    chains.clear();
    chain_nodes.clear();
    chain_symbols.clear();
    chain_mms.clear();
    rij_index.Clear();
    rij_used = 0;
    pattern_lcp.reset();
    mtree.Reset();
    stack.clear();
    tau.clear();
  }
};

AlgorithmAScratch::AlgorithmAScratch() : impl_(std::make_unique<Impl>()) {}
AlgorithmAScratch::~AlgorithmAScratch() = default;
AlgorithmAScratch::AlgorithmAScratch(AlgorithmAScratch&&) noexcept = default;
AlgorithmAScratch& AlgorithmAScratch::operator=(AlgorithmAScratch&&) noexcept =
    default;

namespace {

class SearchContext {
 public:
  SearchContext(const FmIndex& index, AlgorithmAScratch::Impl& scratch,
                const std::vector<DnaCode>& pattern, int32_t k,
                const AlgorithmAOptions& options)
      : index_(index),
        r_(pattern),
        m_(pattern.size()),
        k_(k),
        reuse_(options.reuse),
        use_tau_(options.use_tau),
        scratch_(scratch),
        dag_(scratch.dag),
        node_of_range_(scratch.node_of_range),
        chains_(scratch.chains),
        chain_nodes_(scratch.chain_nodes),
        chain_symbols_(scratch.chain_symbols),
        chain_mms_(scratch.chain_mms),
        mtree_(scratch.mtree),
        stack_(scratch.stack),
        tau_(scratch.tau) {
    scratch.Reset();
  }

  void Run() {
    if (m_ == 0 || m_ > index_.text_size() || k_ < 0) return;
    if (use_tau_) {
      BWTK_TRACE_SPAN(trace_, "tau_build");
      ComputeTau(index_, r_).swap(tau_);
    }
    if (dag_.capacity() < (1u << 16)) dag_.reserve(1 << 16);
    if (stack_.capacity() < (1u << 10)) stack_.reserve(1 << 10);
    if (!SeedFromPrefixTable()) {
      stack_.push_back(
          {GetOrCreateNode(index_.WholeRange()), 0, 0, mtree_.root()});
    }
    {
      BWTK_SCOPED_TIMER(kPhaseTreeTraversal);
      BWTK_TRACE_SPAN(trace_, "tree_traversal");
      while (!stack_.empty()) {
        Frame frame = stack_.back();
        stack_.pop_back();
        ProcessFrame(frame);
      }
    }
    NormalizeOccurrences(&results_);
    stats_.mtree_nodes = mtree_.node_count();
    stats_.mtree_leaves = mtree_.leaf_count();
  }

  std::vector<Occurrence>& results() { return results_; }
  SearchStats& stats() { return stats_; }

 private:
  // Pushes the depth-q frames a prefix-table-seeded enumeration starts from
  // (one per non-empty Hamming-ball variant of r's q-prefix), with the
  // M-tree paths the stepped walk would have built for them: a mismatching
  // node per substitution and one collapsed matching node per match gap —
  // AddMatching's merge rule makes consecutive matches (and the leading run
  // under the matching root) collapse exactly as in StepChildren. Returns
  // false when the table is absent or inapplicable (pattern shorter than q,
  // k beyond the seeding cap) and the caller must start at the root.
  bool SeedFromPrefixTable() {
    const PrefixIntervalTable* table = index_.prefix_table();
    if (table == nullptr) return false;
    const uint32_t q = table->q();
    if (m_ < q || k_ > PrefixIntervalTable::kMaxSeedMismatches) return false;
    uint64_t hits = 0;
    PrefixIntervalTable::ForEachVariant(
        r_.data(), q, k_, [&](const PrefixIntervalTable::Variant& v) {
          SaIndex lo;
          SaIndex hi;
          if (!table->Lookup(v.key, &lo, &hi)) return;
          ++hits;
          ++stats_.stree_nodes;
          BWTK_TRACE_NODE(trace_, q);
          int32_t mnode = mtree_.root();
          uint32_t upto = 0;
          for (int32_t s = 0; s < v.mismatches; ++s) {
            const auto [pos, sym] = v.subs[static_cast<size_t>(s)];
            if (pos > upto) mnode = mtree_.AddMatching(mnode);
            mnode = mtree_.AddMismatching(mnode, sym,
                                          static_cast<int32_t>(pos));
            upto = pos + 1u;
          }
          if (upto < q) mnode = mtree_.AddMatching(mnode);
          if (TauCuts(q, v.mismatches)) {
            mtree_.MarkLeaf();
            ++stats_.tau_pruned;
            return;
          }
          stack_.push_back(
              {GetOrCreateNode({lo, hi}), q, v.mismatches, mnode});
        });
    BWTK_METRIC_COUNT2(kCounterPrefixTableHits, hits,
                       kCounterPrefixTableSkippedSteps, hits * q);
    BWTK_TRACE_PREFIX_HITS(trace_, hits);
    return true;
  }

  // Descends from one frame, following chains inline; pushes sibling
  // branches onto the stack.
  void ProcessFrame(Frame frame) {
    for (;;) {
      if (frame.depth == m_) {
        ReportAt(frame.node, frame.mismatches);
        return;
      }
      Expand(frame.node);
      const DagNode& v = dag_[frame.node];
      if (v.child_count == 0) {
        // Dead end: the spelled string cannot be extended in the text (the
        // paper's <$, i> leaves, e.g. u16 in Fig. 7).
        mtree_.MarkLeaf();
        return;
      }
      if (reuse_ == AlgorithmAOptions::Reuse::kFull && v.child_count == 1) {
        const bool advanced = v.chain_id < 0 ? BuildChainWalk(&frame)
                                             : DerivedChainWalk(&frame);
        if (!advanced) return;
        continue;
      }
      StepChildren(frame);
      return;
    }
  }

  // Expands a DAG node: one search() step per symbol, exactly once ever.
  void Expand(int32_t id) {
    if (dag_[id].expanded) return;
    const FmIndex::Range range = dag_[id].range;
    std::array<int32_t, kDnaAlphabetSize> kids{kNoChild, kNoChild, kNoChild,
                                               kNoChild};
    uint8_t count = 0;
    FmIndex::Range next[kDnaAlphabetSize];
    index_.ExtendAll(range, next);
    stats_.extend_calls += kDnaAlphabetSize;
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      if (next[c].empty()) continue;
      kids[c] = GetOrCreateNode(next[c]);  // may reallocate dag_
      ++count;
    }
    DagNode& v = dag_[id];
    v.child = kids;
    v.child_count = count;
    v.expanded = true;
  }

  int32_t GetOrCreateNode(FmIndex::Range range) {
    if (reuse_ == AlgorithmAOptions::Reuse::kNone) {
      dag_.push_back(DagNode{range, {}, -1, 0, false});
      return static_cast<int32_t>(dag_.size() - 1);
    }
    const uint64_t key = (static_cast<uint64_t>(
                              static_cast<uint32_t>(range.lo))
                          << 32) |
                         static_cast<uint32_t>(range.hi);
    const auto [slot, inserted] =
        node_of_range_.TryEmplace(key, static_cast<int32_t>(dag_.size()));
    if (!inserted) {
      ++stats_.reused_nodes;
      return *slot;
    }
    dag_.push_back(DagNode{range, {}, -1, 0, false});
    return *slot;
  }

  // Branching step: at most one child matches r[depth]; the rest are
  // mismatching nodes of the S-tree.
  void StepChildren(const Frame& frame) {
    const DnaCode expected = r_[frame.depth];
    const std::array<int32_t, kDnaAlphabetSize> kids = dag_[frame.node].child;
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      if (kids[c] == kNoChild) continue;
      ++stats_.stree_nodes;
      BWTK_TRACE_NODE(trace_, frame.depth + 1);
      int32_t q = frame.mismatches;
      int32_t mnode = frame.mnode;
      if (c == expected) {
        mnode = mtree_.AddMatching(mnode);
      } else {
        ++q;
        mnode = mtree_.AddMismatching(mnode, c,
                                      static_cast<int32_t>(frame.depth));
        if (q > k_) {
          mtree_.MarkLeaf();
          ++stats_.budget_pruned;
          continue;
        }
      }
      if (TauCuts(frame.depth + 1, q)) {
        mtree_.MarkLeaf();
        ++stats_.tau_pruned;
        continue;
      }
      stack_.push_back({kids[c], frame.depth + 1, q, mnode});
    }
  }

  // First walk through a single-continuation run: records the chain and its
  // mismatch array against the current alignment while walking it. The run
  // is built speculatively on the arena tails; too-short runs truncate back
  // to the entry marks. Returns true if `frame` advanced past the chain,
  // false if the path terminated inside it.
  bool BuildChainWalk(Frame* frame) {
    const uint32_t node_mark = static_cast<uint32_t>(chain_nodes_.size());
    const uint32_t mm_mark = static_cast<uint32_t>(chain_mms_.size());
    int32_t cur = frame->node;
    int32_t q = frame->mismatches;
    int32_t mnode = frame->mnode;
    enum class End { kOpen, kKilled, kComplete };
    End end = End::kOpen;
    int32_t final_node = kNoChild;
    for (;;) {
      Expand(cur);
      if (dag_[cur].child_count != 1) break;
      DnaCode c = 0;
      while (dag_[cur].child[c] == kNoChild) ++c;
      const int32_t child = dag_[cur].child[c];
      const size_t t = chain_nodes_.size() - node_mark + 1;  // 1-based offset
      const size_t ppos = frame->depth + t - 1;              // pattern pos
      chain_nodes_.push_back(child);
      chain_symbols_.push_back(c);
      ++stats_.stree_nodes;
      BWTK_TRACE_NODE(trace_, ppos + 1);
      if (c == r_[ppos]) {
        mnode = mtree_.AddMatching(mnode);
      } else {
        chain_mms_.push_back(static_cast<int32_t>(t));
        ++q;
        mnode = mtree_.AddMismatching(mnode, c, static_cast<int32_t>(ppos));
        if (q > k_) {
          mtree_.MarkLeaf();
          ++stats_.budget_pruned;
          end = End::kKilled;
          break;
        }
      }
      if (ppos + 1 == m_) {
        end = End::kComplete;
        final_node = child;
        break;
      }
      if (TauCuts(ppos + 1, q)) {
        mtree_.MarkLeaf();
        ++stats_.tau_pruned;
        end = End::kKilled;
        break;
      }
      cur = child;
    }
    const size_t length = chain_nodes_.size() - node_mark;
    const int32_t last_node = length > 0 ? chain_nodes_.back() : kNoChild;
    // Short runs are not worth a stored record: a re-visit re-walks them in
    // a handful of O(1) steps anyway. Only runs of at least kMinChainLength
    // nodes are kept for merge-based derivation.
    constexpr size_t kMinChainLength = 4;
    if (length >= kMinChainLength) {
      dag_[frame->node].chain_id = static_cast<int32_t>(chains_.size());
      chains_.push_back(ChainRec{
          static_cast<int32_t>(frame->depth), node_mark,
          static_cast<uint32_t>(length), mm_mark,
          static_cast<uint32_t>(chain_mms_.size() - mm_mark)});
      BWTK_METRIC_COUNT(kCounterChainBuilds);
      BWTK_METRIC_OBSERVE(kHistChainLength, length);
    } else {
      chain_nodes_.Truncate(node_mark);
      chain_symbols_.Truncate(node_mark);
      chain_mms_.Truncate(mm_mark);
    }
    if (end == End::kComplete) {
      ReportAt(final_node, q, mnode);
      return false;
    }
    if (end == End::kKilled) return false;
    BWTK_DCHECK_GT(length, 0u);  // entry had child_count == 1
    frame->node = last_node;
    frame->depth += static_cast<uint32_t>(length);
    frame->mismatches = q;
    frame->mnode = mnode;
    return true;
  }

  // Re-entry into a stored chain at a (usually different) alignment j: the
  // chain's mismatch structure against r[j..] is derived from the stored
  // array (vs r[i..]) and R_ij — the paper's node-creation over D[u'].
  // Offsets beyond the derivation horizon (the i > j case) fall back to
  // direct comparison; a chain shorter than the pattern remainder resumes
  // real search steps afterwards (the extension step).
  bool DerivedChainWalk(Frame* frame) {
    BWTK_SCOPED_TIMER(kPhaseMerge);
    BWTK_TRACE_SPAN(trace_, "merge");
    BWTK_METRIC_COUNT(kCounterMergeCalls);
    const ChainRec chain = chains_[dag_[frame->node].chain_id];
    // Arena views; no chain is built while one is derived, so the spans are
    // stable for the whole walk.
    const int32_t* nodes = chain_nodes_.data() + chain.begin;
    const DnaCode* symbols = chain_symbols_.data() + chain.begin;
    const int32_t* mm = chain_mms_.data() + chain.mm_begin;
    const size_t mm_size = chain.mm_count;
    const size_t i = static_cast<size_t>(chain.first_alignment);
    const size_t j = frame->depth;
    const size_t lambda = chain.length;
    const size_t need = m_ - j;
    ++stats_.derived_runs;

    const int32_t* rij = nullptr;
    size_t rij_size = 0;
    size_t horizon = lambda;
    if (i != j) {
      const MismatchArray& built = GetRij(i, j);
      rij = built.data();
      rij_size = built.size();
      horizon = std::min(horizon, m_ - std::max(i, j));
    }
    horizon = std::min(horizon, need);
    const size_t limit = std::min(need, lambda);

    int32_t q = frame->mismatches;
    int32_t mnode = frame->mnode;
    size_t last_event = 0;
    bool killed = false;
    auto on_mismatch = [&](size_t t) {
      if (t > last_event + 1) mnode = mtree_.AddMatching(mnode);
      ++q;
      mnode = mtree_.AddMismatching(mnode, symbols[t - 1],
                                    static_cast<int32_t>(j + t - 1));
      last_event = t;
      if (q > k_) {
        mtree_.MarkLeaf();
        ++stats_.budget_pruned;
        killed = true;
      } else if (TauCuts(j + t, q)) {
        mtree_.MarkLeaf();
        ++stats_.tau_pruned;
        killed = true;
      }
    };

    // Merge the two mismatch arrays (Proposition 1): offsets present in
    // only one are mismatches outright; common offsets compare the chain
    // character against r[j + t - 1].
    size_t p = 0;
    size_t s = 0;
    while (!killed) {
      const size_t t1 = p < mm_size ? static_cast<size_t>(mm[p]) : SIZE_MAX;
      const size_t t2 =
          s < rij_size ? static_cast<size_t>(rij[s]) : SIZE_MAX;
      const size_t t = std::min(t1, t2);
      if (t > horizon) break;
      if (t1 == t2) {
        if (symbols[t - 1] != r_[j + t - 1]) on_mismatch(t);
        ++p;
        ++s;
      } else if (t1 < t2) {
        on_mismatch(t);
        ++p;
      } else {
        on_mismatch(t);
        ++s;
      }
    }
    // Beyond the horizon the derivation is blind: compare directly.
    for (size_t t = horizon + 1; t <= limit && !killed; ++t) {
      ++stats_.stree_nodes;
      BWTK_TRACE_NODE(trace_, j + t);
      if (symbols[t - 1] != r_[j + t - 1]) on_mismatch(t);
    }
    if (killed) return false;
    if (need <= lambda) {
      if (need > last_event) mnode = mtree_.AddMatching(mnode);
      ReportAt(nodes[need - 1], q, mnode);
      return false;
    }
    if (lambda > last_event) mnode = mtree_.AddMatching(mnode);
    frame->node = nodes[lambda - 1];
    frame->depth = static_cast<uint32_t>(j + lambda);
    frame->mismatches = q;
    frame->mnode = mnode;
    return true;
  }

  // True when the τ(i) lower bound proves no occurrence can complete from
  // pattern position `next_pos` with `q` mismatches already spent.
  bool TauCuts(size_t next_pos, int32_t q) const {
    return use_tau_ && next_pos < tau_.size() && k_ - q < tau_[next_pos];
  }

  // R_ij: mismatch offsets between r[i..] and r[j..] over their overlap,
  // computed exactly with kangaroo jumps and cached per (i, j) in a flat
  // epoch-cleared index over a slot pool.
  const MismatchArray& GetRij(size_t i, size_t j) {
    const uint64_t key = static_cast<uint64_t>(i) * (m_ + 1) + j;
    const auto [slot, inserted] = scratch_.rij_index.TryEmplace(
        key, static_cast<int32_t>(scratch_.rij_used));
    if (!inserted) {
      BWTK_METRIC_COUNT(kCounterRijCacheHits);
      return scratch_.rij_pool[static_cast<size_t>(*slot)];
    }
    BWTK_SCOPED_TIMER(kPhaseRiBuild);
    BWTK_TRACE_SPAN(trace_, "ri_build");
    BWTK_METRIC_COUNT(kCounterRijBuilds);
    if (!scratch_.pattern_lcp.has_value()) {
      auto built = PatternLcp::Build(r_);
      BWTK_CHECK(built.ok()) << built.status().ToString();
      scratch_.pattern_lcp = std::move(built).value();
    }
    const size_t overlap = m_ - std::max(i, j);
    if (scratch_.rij_used == scratch_.rij_pool.size()) {
      scratch_.rij_pool.emplace_back();
    }
    MismatchArray& out = scratch_.rij_pool[scratch_.rij_used++];
    out = scratch_.pattern_lcp->MismatchesBetween(i, j, overlap, overlap);
    return out;
  }

  void ReportAt(int32_t node, int32_t mismatches, int32_t mnode = -1) {
    (void)mnode;
    BWTK_TRACE_SPAN(trace_, "locate");
    ++stats_.completed_paths;
    mtree_.MarkLeaf();
    for (const size_t pos : index_.Locate(dag_[node].range, m_)) {
      results_.push_back({pos, mismatches});
    }
  }

  const FmIndex& index_;
  const std::vector<DnaCode>& r_;
  const size_t m_;
  const int32_t k_;
  const AlgorithmAOptions::Reuse reuse_;
  const bool use_tau_;
  // The thread's active trace, hoisted once per query so per-node hooks are
  // a single null check (no TLS access in the enumeration loop).
  obs::Trace* const trace_ = BWTK_TRACE_ACTIVE();

  // Scratch-owned buffers, reset on entry and reused across queries.
  AlgorithmAScratch::Impl& scratch_;
  std::vector<DagNode>& dag_;
  EpochMap& node_of_range_;
  BumpPool<ChainRec>& chains_;
  BumpPool<int32_t>& chain_nodes_;
  BumpPool<DnaCode>& chain_symbols_;
  BumpPool<int32_t>& chain_mms_;
  MTree& mtree_;
  std::vector<Frame>& stack_;
  std::vector<int32_t>& tau_;

  std::vector<Occurrence> results_;
  SearchStats stats_;
};

}  // namespace

std::vector<Occurrence> AlgorithmA::Search(const std::vector<DnaCode>& pattern,
                                           int32_t k,
                                           SearchStats* stats) const {
  AlgorithmAScratch scratch;
  return Search(pattern, k, stats, &scratch);
}

std::vector<Occurrence> AlgorithmA::Search(const std::vector<DnaCode>& pattern,
                                           int32_t k, SearchStats* stats,
                                           AlgorithmAScratch* scratch) const {
  BWTK_SCOPED_HIST_TIMER(kHistQueryNanos);
  SearchContext context(*index_, *scratch->impl_, pattern, k, options_);
  context.Run();
  if (stats != nullptr) *stats = context.stats();
  // Rank work is flushed in bulk here instead of per ExtendAll call so the
  // enumeration loop carries no metrics hooks (see FmIndex::Extend). The
  // engine does exactly one ExtendAll (= two RankAlls) per
  // kDnaAlphabetSize-sized extend_calls increment.
  const uint64_t extend_alls =
      context.stats().extend_calls / kDnaAlphabetSize;
  BWTK_METRIC_COUNT2(kCounterExtendAllCalls, extend_alls,
                     kCounterRankAllCalls, 2 * extend_alls);
  BWTK_METRIC_OBSERVE(kHistHitsPerQuery, context.results().size());
  return std::move(context.results());
}

}  // namespace bwtk
