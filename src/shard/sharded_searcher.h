// Exact batched search over a ShardedIndex.
//
// A sharded pool answers every query against every shard on one worker
// (EngineBank::AnswerAll, one query at a time, as serve::Session does),
// translates the per-shard hits back to global text coordinates, and
// resolves the seams: a window starting near a core boundary lies in more
// than one slice and is found by each of them, so every hit is kept only by
// its *owner* shard — the lowest-numbered shard whose slice contains the
// whole window (ShardPlan::OwnerShard). The result is byte-identical to
// running the same engine over one monolithic FmIndex of the whole text,
// provided every query's window fits the overlap; Search() rejects batches
// that don't with InvalidArgument rather than silently dropping seam
// occurrences.
//
// The required window length per query is the pattern length for the
// Hamming engines (kAlgorithmA, kSTree, kWildcard, kDictionary) and
// pattern length + k for kerror,
// whose alignments may consume up to k extra text characters. Using the
// worst-case kerror window for ownership also preserves that engine's
// best-alignment-per-position semantics: the owner's slice contains every
// candidate alignment at the position, so its local best is the global
// best.
//
// Observability: searched (query, shard) pairs are counted in the
// `shard_queries` counter, k = 0 point lookups in `shard_exact_shortcuts`
// and discarded seam duplicates in `seam_hits_deduped`
// (docs/OBSERVABILITY.md); per-query traces flow through the pool's sink
// with their shard in Trace::shard_id.

#ifndef BWTK_SHARD_SHARDED_SEARCHER_H_
#define BWTK_SHARD_SHARDED_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "search/batch_searcher.h"
#include "shard/sharded_index.h"
#include "util/status.h"

namespace bwtk {

/// Text window a query's occurrences can span — the seam-ownership unit:
/// the pattern itself for the Hamming engines (kAlgorithmA, kSTree,
/// kWildcard, kDictionary, kBidirectional, and kAuto, which only resolves
/// to Hamming engines), up to k extra characters for kerror alignments. A
/// sharded query is servable iff this window fits the index's overlap.
size_t ShardedQueryWindow(const BatchQuery& query, BatchEngine engine);

/// Folds one query's per-shard hit lists (`parts`, plan.num_shards()
/// entries in shard order, local coordinates) into `merged` in global
/// coordinates: translates each hit, keeps it only when its owner shard
/// (lowest shard whose slice contains the whole window) reported it, and
/// normalizes the result to canonical position order. Consumes `parts`
/// (each list is cleared). Returns the number of seam duplicates
/// discarded, and counts them in `seam_hits_deduped`. This is THE seam
/// rule — EngineBank::Answer and the sharded dictionary batch both route
/// through it, so batch and streamed sharded results cannot disagree.
uint64_t ResolveShardedHits(const ShardPlan& plan, size_t window,
                            std::vector<Occurrence>* parts,
                            std::vector<Occurrence>* merged);

/// Content fingerprint of a sharded index: the plan parameters folded with
/// every shard's FmIndexVersion. The result-cache key for sharded queries
/// (see search/result_cache.h) — a rebuilt, resharded, or re-overlapped
/// index misses every stale entry.
uint64_t ShardedIndexVersion(const ShardedIndex& index);

/// Sharded batch search: the window check, then a BatchSearcher pool over
/// the shards. Same single-batch-at-a-time contract as BatchSearcher; the
/// result cache, the k = 0 point lookups and the seam rule are
/// EngineBank::Answer's (search/batch_searcher.h).
class ShardedBatchSearcher {
 public:
  /// `index` must outlive the searcher. The pool (options.num_threads
  /// workers) starts here.
  explicit ShardedBatchSearcher(const ShardedIndex* index,
                                const BatchOptions& options = {});

  /// Runs the batch and blocks. occurrences[i] holds queries[i]'s hits in
  /// global coordinates, equal to the monolithic engine's output for the
  /// whole text. Fails with InvalidArgument if any query needs a window
  /// longer than the index's overlap (pattern length, + k for kerror).
  Result<BatchResult> Search(const std::vector<BatchQuery>& queries);

  /// ASCII convenience, mirroring BatchSearcher: same budget `k` for every
  /// pattern; see BatchOptions::fail_fast for undecodable-pattern handling.
  Result<BatchResult> Search(const std::vector<std::string>& patterns,
                             int32_t k);

  const ShardedIndex& index() const { return *index_; }
  int num_threads() const { return batch_.num_threads(); }
  const obs::TraceSink* trace_sink() const { return batch_.trace_sink(); }

 private:
  const ShardedIndex* index_;  // not owned
  BatchOptions options_;
  BatchSearcher batch_;
};

}  // namespace bwtk

#endif  // BWTK_SHARD_SHARDED_SEARCHER_H_
