// BatchSearcher — parallel k-mismatch search over one shared FM-index or
// one ShardedIndex.
//
// An FmIndex is immutable after Build() and every query-path method on it
// is const, so N threads can search the same index with no locks. This class
// packages that: a fixed-size std::thread worker pool, an atomic cursor
// handing out queries, and one EngineBank per worker so the engines allocate
// nothing per query after warm-up. Results come back in input order;
// per-thread SearchStats are merged into one aggregate at batch end.
//
//   bwtk::BatchSearcher batch(searcher, {.num_threads = 8});
//   std::vector<bwtk::BatchQuery> queries = ...;   // (pattern, k) pairs
//   bwtk::BatchResult result = batch.Search(queries);
//   // result.occurrences[i] == serial searcher.Search(queries[i].pattern, k)
//
// Every worker answers its queries through one EngineBank::AnswerAll call
// per batch — the path serve::Session's workers take one query at a time —
// so batch and served search share the result cache, the seam rule and the
// stats contract. A worker keeps up to BidirWalkSet::kBatchWalks
// bidirectional walks in flight and claims the next query from the batch
// cursor whenever one finishes. A pool over a ShardedIndex exists only
// inside ShardedBatchSearcher (shard/sharded_searcher.h), which checks
// every query's window against the shard overlap first.
//
// Thread safety: a BatchSearcher drives its own pool and is NOT itself
// thread-safe — issue one batch at a time (concurrent Search calls on one
// BatchSearcher are undefined). Multiple BatchSearchers may share one
// FmIndex.

#ifndef BWTK_SEARCH_BATCH_SEARCHER_H_
#define BWTK_SEARCH_BATCH_SEARCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alphabet/dna.h"
#include "bidir/bidir_search.h"
#include "bwt/fm_index.h"
#include "dict/dictionary_searcher.h"
#include "dict/pattern_set_trie.h"
#include "obs/trace.h"
#include "search/algorithm_a.h"
#include "search/match.h"
#include "search/result_cache.h"
#include "search/searcher.h"
#include "search/stree_search.h"
#include "util/status.h"

namespace bwtk {

class ShardedBatchSearcher;
class ShardedIndex;

/// One query of a batch: a pattern and its own mismatch budget.
struct BatchQuery {
  std::vector<DnaCode> pattern;
  int32_t k = 0;
};

/// Which search engine the worker pool runs per query. All of them return
/// position-sorted Occurrence lists over the same index; they differ in the
/// distance function and the amount of reuse machinery. The per-engine
/// SearchStats contract (which counters each engine fills) is documented in
/// docs/API.md, "Per-engine stats contract".
enum class BatchEngine {
  /// The paper's Algorithm A (Hamming distance, full reuse). Default.
  kAlgorithmA,
  /// The BWT-baseline S-tree search (Hamming distance, no reuse).
  kSTree,
  /// KErrorSearch (Levenshtein distance). Each EditOccurrence is projected
  /// to Occurrence{position, edits}; the matched-substring *length* is not
  /// representable in Occurrence and is dropped. Intended for small k.
  kKError,
  /// WildcardSearch: patterns may contain kWildcardCode positions that
  /// match any base, plus a Hamming budget k on the concrete positions.
  /// ASCII batch overloads decode patterns with ParseWildcardPattern
  /// ('?', '.', 'n', 'N' = wildcard) when this engine is selected.
  kWildcard,
  /// DictionarySearcher (Hamming distance, dict/dictionary_searcher.h):
  /// the batch's equal-length patterns are folded into PatternSetTrie
  /// groups on the submitting thread and each group is answered by ONE
  /// joint trie ∩ FM-index descent per index, so shared pattern prefixes
  /// are searched once across the whole batch. Per query the hits are
  /// byte-identical to kSTree/kAlgorithmA; the win is throughput on large
  /// pattern sets (see docs/DICTIONARY.md and BENCH_dictionary.json).
  /// Patterns of different lengths (or different k) simply land in
  /// different groups.
  kDictionary,
  /// BidirectionalSearch (Hamming distance, bidir/bidir_search.h): walks an
  /// optimal search scheme over a BiFmIndex, extending in both directions
  /// so most branches die in a mismatch-poor piece. Requires
  /// BatchOptions::bidir_indexes (one BiFmIndex per index slot); hits are
  /// byte-identical to kSTree/kAlgorithmA. Strongest at k >= 2 on long
  /// reads (see BENCH_bidir.json and docs/BIDIRECTIONAL.md).
  kBidirectional,
  /// Not an engine: per query, AutoPickEngine(pattern length, k,
  /// bidir available) selects kAlgorithmA or kBidirectional from the
  /// calibrated crossover table. Falls back to kAlgorithmA everywhere when
  /// BatchOptions::bidir_indexes is absent. Stats, traces, result-cache
  /// keys and served-ticket counters all attribute to the *resolved*
  /// engine.
  kAuto,
};

/// Stable engine label used for traces and bench reports ("algorithm_a",
/// "stree", "kerror", "wildcard", "dictionary", "bidirectional", "auto").
std::string_view BatchEngineName(BatchEngine engine);

/// The (pattern length, k) → engine table behind BatchEngine::kAuto,
/// calibrated from the committed BENCH_bidir.json head-to-head grid (see
/// docs/BIDIRECTIONAL.md for the measured crossover). Returns kAlgorithmA
/// whenever `bidir_available` is false.
BatchEngine AutoPickEngine(size_t pattern_length, int32_t k,
                           bool bidir_available);

/// Decodes an ASCII pattern the way the batch overloads do for `engine`:
/// ParseWildcardPattern for kWildcard (wildcards allowed), EncodeDna for
/// every other engine (strict a/c/g/t).
Result<std::vector<DnaCode>> DecodeBatchPattern(BatchEngine engine,
                                                std::string_view pattern);

/// Pool configuration, fixed at construction.
struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int num_threads = 0;

  /// ASCII batches only: when true, the first undecodable pattern fails the
  /// whole batch before any search runs. When false, bad patterns are
  /// skipped — they yield an empty occurrence list and are counted in
  /// BatchResult::failed_queries.
  bool fail_fast = false;

  /// Which engine the workers run (see BatchEngine).
  BatchEngine engine = BatchEngine::kAlgorithmA;

  /// Engine knobs for BatchEngine::kAlgorithmA, passed through to every
  /// worker's AlgorithmA.
  AlgorithmAOptions algorithm_a = {};

  /// Engine knobs for BatchEngine::kSTree.
  STreeOptions stree = {};

  /// Engine knobs for BatchEngine::kBidirectional.
  BidirOptions bidir = {};

  /// Bidirectional indexes, one per index slot, each pairing the slot's
  /// FmIndex with its reverse-text half (typically BiFmIndex::FromForward
  /// of that very index). Required for kBidirectional, enables the
  /// bidirectional arm of kAuto, ignored by the other engines. When
  /// non-empty the vector must have exactly one non-null entry per index,
  /// each indexing the same text as its slot (for a ShardedBatchSearcher,
  /// one per shard in shard order). Not owned; must outlive the
  /// searcher/session.
  std::vector<const BiFmIndex*> bidir_indexes;

  /// Exact-duplicate result cache (search/result_cache.h). When enabled
  /// every query is looked up per (resolved engine, k, index version,
  /// pattern) before searching and inserted on a miss; the version is
  /// FmIndexVersion for one index, ShardedIndexVersion for a sharded one.
  /// Cached entries store the original execution's SearchStats and seam
  /// count, so results and aggregate stats are identical whether or not
  /// the cache is warm. Off by default.
  ResultCacheOptions result_cache = {};

  /// Externally owned cache instance. When set, it is used (and
  /// result_cache.enabled is ignored) — this is how pools and Sessions over
  /// the same index share one cache, and how a cache survives an index
  /// rebuild (stale entries miss by version). When null and
  /// result_cache.enabled is true, the pool or Session creates a private
  /// instance shared by its workers.
  std::shared_ptr<ResultCache> result_cache_instance;

  /// Per-query tracing (see obs/trace.h). 0 disables tracing entirely — no
  /// sink is created and the query path pays nothing. In (0, 1] each query
  /// is traced with this probability; the decision hashes the stable trace
  /// id `(batch sequence << 32) | task index`, so the sampled subset is
  /// reproducible across runs and independent of thread assignment. (For a
  /// single index the task index is the query index; over S shards shard s
  /// of query q traces as `q * S + s`.)
  double trace_sample_rate = 0.0;

  /// Slow-query log depth: the sink retains this many of the worst sampled
  /// traces by wall time (see TraceSink). Effective only when tracing is on.
  size_t slow_trace_count = 8;

  /// When non-empty and tracing is on, every completed batch rewrites this
  /// file with the sink's cumulative Chrome-trace JSON (WriteTraceFile).
  /// Failures are logged as warnings, never fail the batch.
  std::string trace_out;
};

/// `options` with result_cache_instance filled in: a new cache when
/// result_cache.enabled asks for one and no instance was given. A pool or
/// Session calls this once, so that all of its workers' banks share one
/// cache.
BatchOptions WithSharedResultCache(BatchOptions options);

/// Output of one batch: per-query hits in input order + aggregate counters.
struct BatchResult {
  /// occurrences[i] holds the hits for queries[i].
  std::vector<std::vector<Occurrence>> occurrences;
  /// Sum of every query's SearchStats across all workers (and, for sharded
  /// batches, across shards — counters measure total work done, seam
  /// redundancy included).
  SearchStats stats;
  /// ASCII batches with fail_fast = false: number of undecodable patterns.
  size_t failed_queries = 0;
  /// Overlap-seam hits discarded by the ownership rule. Only set by
  /// ShardedBatchSearcher; always 0 for a plain BatchSearcher.
  uint64_t seam_hits_deduped = 0;
};

/// How EngineBank::Answer answered one query.
struct QueryAnswer {
  /// Position-sorted hits; global text coordinates over a sharded index.
  std::vector<Occurrence> hits;
  /// The query's engine counters, summed over shards. Zero for a sharded
  /// k = 0 point lookup, which runs no engine.
  SearchStats stats;
  /// The engine the query ran under: kAuto resolved per query.
  BatchEngine engine = BatchEngine::kAlgorithmA;
  /// Seam duplicates discarded by the ownership rule (sharded only).
  uint64_t seam_hits_deduped = 0;
  /// True when the result cache answered. `hits`, `stats` and
  /// `seam_hits_deduped` are the original execution's either way.
  bool cache_served = false;
};

/// One query handed to EngineBank::AnswerAll.
struct QueryClaim {
  /// Must stay valid until its answer is delivered.
  const BatchQuery* query = nullptr;
  /// The caller's handle for the query, passed back with its answer.
  uint64_t id = 0;
  /// Stable trace id (see EngineBank::Answer).
  uint64_t trace_id = 0;
};

/// One worker's bank of search engines over an index group: one FmIndex,
/// or the shards of a ShardedIndex. AnswerAll() is THE query path —
/// BatchSearcher's pool workers call it once per batch and serve::Session's
/// workers once per query (through Answer), so the result-cache key, the
/// sharded seam rule and the stats contract cannot drift between batch and
/// served search. Engines are thin const views over the shared immutable
/// indexes, so constructing a bank is cheap and banks on different threads
/// never contend.
///
/// Not thread-safe: one bank per worker thread (the AlgorithmA scratch and
/// the walk slots are mutable per-query state). Banks may share one
/// ResultCache.
class EngineBank {
 public:
  /// `index` must be non-null and outlive the bank. The bank consults
  /// options.result_cache_instance (BatchSearcher and Session create it from
  /// options.result_cache so that all their workers share it).
  EngineBank(const FmIndex* index, const BatchOptions& options);

  /// Sharded group: every shard runs its own engines; Answer() returns
  /// global coordinates. BatchOptions::bidir_indexes, when set, holds one
  /// entry per shard in shard order.
  EngineBank(const ShardedIndex* index, const BatchOptions& options);

  ~EngineBank();
  EngineBank(const EngineBank&) = delete;
  EngineBank& operator=(const EngineBank&) = delete;

  /// Answers `query` under `engine` against the whole group: AnswerAll
  /// with this one query. Per query, AnswerAll
  ///  1. looks it up in the result cache, keyed by the resolved engine and
  ///     the group's version (FmIndexVersion / ShardedIndexVersion);
  ///  2. on a miss runs the resolved engine on each index — except that a
  ///     sharded group answers a k = 0, wildcard-free query with one
  ///     point lookup per shard (every engine is exact matching there);
  ///  3. resolves seams with ResolveShardedHits, and inserts the answer.
  /// Sampled traces go to `sink` (may be null), one per index searched:
  /// index s traces as `trace_id + s` from worker `thread_index`. A query
  /// with k < 0 (a decode-failed placeholder) returns empty without
  /// searching. `engine` must satisfy Supports().
  QueryAnswer Answer(BatchEngine engine, const BatchQuery& query,
                     obs::TraceSink* sink = nullptr, uint64_t trace_id = 0,
                     uint32_t thread_index = 0);

  /// Answers every query `next` hands out (it returns false when there are
  /// no more) and passes each answer to `done` with its claim's id, in the
  /// order the answers complete. A query that runs under kBidirectional
  /// (kAuto resolved) on a single index becomes a scheme walk: up to
  /// BidirWalkSet::kBatchWalks walks are in flight at once, stepped
  /// round-robin on this thread, and `next` is called again as soon as one
  /// finishes. Every other query — other engines, sharded groups, cache
  /// hits, k < 0 — is answered on the spot, one at a time. Either way a
  /// query's answer, stats, cache entry and trace are those Answer gives
  /// it alone; a walk's trace times only its own turns
  /// (BidirWalkSet::own_nanos).
  void AnswerAll(BatchEngine engine,
                 const std::function<bool(QueryClaim*)>& next,
                 const std::function<void(uint64_t id, QueryAnswer&&)>& done,
                 obs::TraceSink* sink = nullptr, uint32_t thread_index = 0);

  /// Runs `query` with `engine` (kAuto resolved) against index
  /// `index_slot` alone — local coordinates, no cache, no seam rule.
  /// `engine` must satisfy Supports() (kBidirectional without bidir
  /// indexes is a CHECK failure — callers taking untrusted overrides
  /// validate with Supports first).
  std::vector<Occurrence> RunWith(BatchEngine engine, const BatchQuery& query,
                                  size_t index_slot, SearchStats* stats);

  /// BatchEngine::kDictionary only: answers every pattern of `trie` against
  /// index `index_slot` in one joint descent. result[id] answers
  /// trie.pattern(id), byte-identical to RunWith on that pattern alone.
  std::vector<std::vector<Occurrence>> RunDictionary(const PatternSetTrie& trie,
                                                     int32_t k,
                                                     size_t index_slot,
                                                     SearchStats* stats);

  /// True when this bank can execute `engine`: always for the five
  /// FmIndex-only engines and kAuto (which degrades to kAlgorithmA),
  /// only with BatchOptions::bidir_indexes for kBidirectional.
  bool Supports(BatchEngine engine) const;

  /// The engine a query actually runs under: `engine` itself, except kAuto
  /// which maps through AutoPickEngine(pattern length, k, bidir present).
  BatchEngine Resolve(BatchEngine engine, const BatchQuery& query) const;

  /// BatchEngineName(options.engine) — the stable trace/report label.
  std::string_view engine_name() const;

  /// 1 for a single index, the shard count for a sharded group.
  size_t num_indexes() const;

 private:
  // AnswerAll's per-query step: starts a walk for `claim` and returns true,
  // or answers it into `*answer` and returns false.
  bool StartOrAnswer(BatchEngine engine, const QueryClaim& claim,
                     obs::TraceSink* sink, uint32_t thread_index,
                     QueryAnswer* answer);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Fixed worker pool executing batches of k-mismatch queries.
class BatchSearcher {
 public:
  /// `index` must outlive the BatchSearcher. Workers start (and block idle)
  /// here.
  explicit BatchSearcher(const FmIndex* index,
                         const BatchOptions& options = {});

  /// Convenience: searches `searcher`'s index. The searcher must outlive
  /// the BatchSearcher.
  explicit BatchSearcher(const KMismatchSearcher& searcher,
                         const BatchOptions& options = {})
      : BatchSearcher(&searcher.index(), options) {}

  /// Joins the workers.
  ~BatchSearcher();

  BatchSearcher(const BatchSearcher&) = delete;
  BatchSearcher& operator=(const BatchSearcher&) = delete;

  /// Runs every query and blocks until the batch is complete. Results are
  /// in input order; each equals what the serial engine would return for
  /// that (pattern, k). An empty batch returns immediately.
  BatchResult Search(const std::vector<BatchQuery>& queries);

  /// ASCII convenience: same budget `k` for every pattern. Decoding happens
  /// up front on the calling thread; see BatchOptions::fail_fast for how
  /// undecodable patterns are handled.
  Result<BatchResult> Search(const std::vector<std::string>& patterns,
                             int32_t k);

  /// Actual pool size (after resolving num_threads = 0 and clamping).
  int num_threads() const;

  /// The trace collector, or nullptr when tracing is disabled
  /// (trace_sample_rate == 0, or the library was built with
  /// -DBWTK_DISABLE_METRICS). Accumulates across batches; read it between
  /// batches only (Search must not be in flight).
  const obs::TraceSink* trace_sink() const;

 private:
  friend class ShardedBatchSearcher;

  // The sharded pool: answers in global coordinates. Only
  // ShardedBatchSearcher builds one, after its window check.
  BatchSearcher(const ShardedIndex* index, const BatchOptions& options);

  // Decodes an ASCII batch for `options.engine`. Undecodable patterns fail
  // the batch (fail_fast) or become k = -1 placeholders counted in *failed.
  static Result<std::vector<BatchQuery>> DecodeAscii(
      const BatchOptions& options, const std::vector<std::string>& patterns,
      int32_t k, size_t* failed);

  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace bwtk

#endif  // BWTK_SEARCH_BATCH_SEARCHER_H_
