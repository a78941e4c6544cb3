// Observability core: a process-wide metrics registry with monotonic
// counters, nanosecond phase timers, and log2-bucketed histograms.
//
// Design goals, in order:
//   1. Near-zero overhead on the hot path. Every hook is a relaxed
//      single-writer increment of a thread-local slab (no RMW atomics, no
//      locks, no hashing, no string lookups — see SlotAdd below). Metric
//      identities are compile-time enum indices.
//   2. Zero overhead when compiled out. Building with -DBWTK_DISABLE_METRICS
//      (CMake option BWTK_DISABLE_METRICS) expands every BWTK_METRIC_* /
//      BWTK_SCOPED_* hook to `(void)0`; the instrumented code paths are
//      byte-identical to never having been instrumented.
//   3. Safe aggregation. Each thread owns a MetricsBlock; blocks register
//      with the global MetricsRegistry on first use and fold into a retired
//      accumulator on thread exit. Snapshot() sums retired + live blocks.
//
// Synchronization contract: each slot has exactly ONE writer (the owning
// thread), so hooks need no read-modify-write atomics — they do relaxed
// atomic_ref load/add/store on the thread's own slab, which costs the same
// as a plain increment but makes concurrent *readers* well-defined.
//   - Snapshot() may run at any time, concurrent with active writers. It
//     reads live blocks through relaxed atomic_ref loads, so every field is
//     individually torn-free and monotone; the block as a whole is NOT a
//     consistent cut (a counter may include a query whose histogram
//     observation hasn't landed yet). The windowed aggregator
//     (obs/windowed.h) is built on exactly this guarantee.
//   - Reset() still requires quiescent writers (ordered before the call by a
//     join or mutex): it writes other threads' blocks. That is how the bench
//     harness uses it. A Reset concurrent-ish with an aggregator shows up
//     there as a detected regression, not as UB — see WindowedAggregator.
//
// The catalog (which counter/phase/histogram exists, where it is incremented,
// and which paper quantity it corresponds to) is documented in
// docs/OBSERVABILITY.md; keep the enum lists, the name tables in metrics.cc,
// and that document in sync when adding a metric.

#ifndef BWTK_OBS_METRICS_H_
#define BWTK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace bwtk::obs {

// --- Metric catalog ------------------------------------------------------
// One enumerator per metric; values index fixed-size arrays in MetricsBlock.
// Append new entries just before the kNum* terminator and add the matching
// name to the table in metrics.cc (CHECKed at startup to stay in sync).

/// Monotonic event counters.
enum CounterId : uint32_t {
  // bwt layer. Rank work is never counted per call: Extend/ExtendAll are
  // tens-of-ns operations, so the query-path callers tally invocations in
  // locals and flush totals to the registry once per query (MatchForward
  // after its loop; the S-tree/Algorithm A engines at query end, deriving
  // extendall = extend_calls / 4 and rankall = 2 * extendall). LF steps
  // (one Rank each) are tallied likewise and flushed once per Locate or
  // SuffixArrayValue call and once per scheme walk. The k-error/wildcard
  // extensions are not instrumented. See the note in occ_table.h.
  kCounterRankCalls,       ///< OccTable::Rank invocations.
  kCounterRankAllCalls,    ///< OccTable::RankAll invocations.
  kCounterExtendCalls,     ///< FmIndex::Extend backward-search steps.
  kCounterExtendAllCalls,  ///< FmIndex::ExtendAll fused 4-way steps.
  kCounterLfSteps,         ///< LF-mapping steps toward SA samples.
  kCounterLocateCalls,     ///< FmIndex::Locate range resolutions.
  // mismatch / Algorithm A layer.
  kCounterRijBuilds,     ///< R_ij mismatch arrays computed (cache misses).
  kCounterRijCacheHits,  ///< R_ij lookups served from the per-query cache.
  kCounterMergeCalls,    ///< merge()-based chain derivations (Prop. 1).
  kCounterChainBuilds,   ///< chains recorded for later derivation.
  // batch layer.
  kCounterBatchBatches,  ///< BatchSearcher::Search batches issued.
  kCounterBatchQueries,  ///< queries executed by batch workers.
  // prefix interval table (bwt/prefix_table.h). Flushed per query like the
  // rank counters above.
  kCounterPrefixTableHits,  ///< q-gram lookups that returned a range.
  /// Backward-search steps elided by prefix-table hits (q per hit) — the
  /// Extend calls that would have run without the table; compare against
  /// extend_calls to see the fraction of stepping the table absorbed.
  kCounterPrefixTableSkippedSteps,
  // shard layer (shard/sharded_searcher.h). Counted once per query, off
  // the per-node hot path.
  kCounterShardQueries,     ///< (query, shard) pairs an engine searched.
  kCounterSeamHitsDeduped,  ///< overlap-seam hits discarded by ownership.
  // serving layer (serve/session.h). Counted at admission/completion — once
  // per ticket, never per node.
  kCounterServeSubmitted,   ///< tickets admitted by Session::Submit.
  kCounterServeCompleted,   ///< tickets whose search finished (any status).
  /// Submissions rejected by admission control (queue full or the client's
  /// in-flight budget exhausted) — the service's Overloaded responses.
  kCounterServeOverloaded,
  // cross-query result cache (search/result_cache.h), counted inside the
  // cache (per query, never per node).
  kCounterResultCacheHits,       ///< queries answered from the result cache.
  kCounterResultCacheMisses,     ///< result-cache probes that missed.
  kCounterResultCacheEvictions,  ///< LRU entries evicted to fit capacity.
  /// Sharded k=0 queries answered by one point lookup per shard instead
  /// of an engine run (EngineBank::Answer, batch and served alike).
  kCounterShardExactShortcuts,
  // serving telemetry (serve/server.h, serve/session.h). Counted once per
  // request/ticket — never per node — so they sit outside the engine hot
  // paths like the other serve counters above.
  kCounterServeStatsTrailers,   ///< queries that requested a stats trailer.
  /// Layer-1 admission rejections attributed to a connection's own in-flight
  /// budget (`max_inflight_per_conn`), as opposed to the global Session
  /// queue rejections already counted by serve_overloaded.
  kCounterServeConnOverloaded,
  // Per-engine served-query counts: which BatchEngine actually answered the
  // traffic. A Session pins one engine, so at most one of these moves per
  // process unless multiple Sessions coexist.
  kCounterServeServedAlgorithmA,  ///< tickets served by the algorithm_a engine.
  kCounterServeServedStree,       ///< tickets served by the stree engine.
  kCounterServeServedKError,      ///< tickets served by the kerror engine.
  kCounterServeServedWildcard,    ///< tickets served by the wildcard engine.
  /// Tickets served by the bidirectional engine. kAuto tickets count under
  /// the engine the auto-pick resolved to, never a separate bucket.
  kCounterServeServedBidirectional,
  // bidirectional search-scheme engine (bidir/bidir_search.h). Flushed once
  // per query like the other engine counters.
  kCounterBidirSearches,      ///< scheme searches walked (per query, per search).
  kCounterBidirLeftExtends,   ///< leftward BiFmIndex ExtendAll steps.
  kCounterBidirRightExtends,  ///< rightward BiFmIndex ExtendAll steps.
  /// Rows of narrow frames that a scheme walk read on in the text instead
  /// of extending them (complete frames' rows are not counted).
  kCounterBidirVerifiedRows,
  kNumCounters
};

/// Timed phases. Phases may nest (merge and locate run inside traversal);
/// they are a breakdown of where time goes, not a disjoint partition.
enum PhaseId : uint32_t {
  kPhaseIndexBuild,     ///< FmIndex::Build (SA-IS + BWT + checkpoints).
  kPhaseTauBuild,       ///< ComputeTau preprocessing per query.
  kPhaseRiBuild,        ///< PatternLcp + R_ij construction (cache misses).
  kPhaseMerge,          ///< derived chain walks (merge of mismatch arrays).
  kPhaseTreeTraversal,  ///< the S-tree/DAG enumeration loop of a query.
  kPhaseLocate,         ///< FmIndex::Locate (row -> text position).
  kPhaseQueueWait,      ///< batch workers blocked waiting for work.
  kPhaseWorkerSearch,   ///< batch workers executing a batch's queries.
  kPhasePrefixTableBuild,  ///< PrefixIntervalTable::Build (index build time).
  kPhaseBidirTraversal,    ///< stepping search-scheme walks, per finished walk.
  kNumPhases
};

/// Log2-bucketed histograms.
enum HistId : uint32_t {
  /// Wall nanoseconds per Search call; for a scheme walk, its first turn
  /// to its last (other walks' turns in between included).
  kHistQueryNanos,
  kHistHitsPerQuery,    ///< occurrences reported per Search call.
  kHistChainLength,     ///< nodes per recorded chain.
  kHistQueueWaitNanos,  ///< nanoseconds per worker wait episode.
  /// Nanoseconds a serving-layer ticket spent queued between admission and
  /// worker pickup — the queue-wait component of service latency the
  /// ROADMAP's serving item set out to measure and reclaim.
  kHistServeQueueNanos,
  kNumHists
};

/// Stable snake_case metric names (used as JSON keys).
std::string_view CounterName(CounterId id);
std::string_view PhaseName(PhaseId id);
std::string_view HistName(HistId id);

// --- Histogram -----------------------------------------------------------

/// Bucket 0 holds exact zeros; bucket b >= 1 holds values in
/// [2^(b-1), 2^b - 1]. uint64 values need bit_width up to 64, hence 65.
inline constexpr size_t kHistBuckets = 65;

constexpr size_t BucketIndex(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

/// Smallest value landing in bucket `b`.
constexpr uint64_t BucketLowerBound(size_t b) {
  return b == 0 ? 0 : uint64_t{1} << (b - 1);
}

/// Largest value landing in bucket `b` (inclusive).
constexpr uint64_t BucketUpperBound(size_t b) {
  return b == 0 ? 0
         : b >= 64 ? ~uint64_t{0}
                   : (uint64_t{1} << b) - 1;
}

// --- Single-writer slots -------------------------------------------------
// Every uint64 metric slot has exactly one writer (the owning thread). These
// helpers make those writes — and concurrent Snapshot reads — data-race-free
// without read-modify-write cost: a relaxed load + add + relaxed store of a
// slot only the caller mutates compiles to the same mov/add/mov sequence as
// a plain `slot += n`. C++20 has no atomic_ref<const T>, hence the
// const_cast on the read side (the referenced objects are never actually
// const).

inline void SlotAdd(uint64_t& slot, uint64_t n) {
  std::atomic_ref<uint64_t> ref(slot);
  ref.store(ref.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

inline uint64_t SlotLoad(const uint64_t& slot) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(slot))
      .load(std::memory_order_relaxed);
}

/// Fixed-size log2 histogram; mergeable like the counters.
struct Histogram {
  std::array<uint64_t, kHistBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  void Observe(uint64_t value) {
    SlotAdd(buckets[BucketIndex(value)], 1);
    SlotAdd(count, 1);
    SlotAdd(sum, value);
  }

  Histogram& operator+=(const Histogram& other);
  Histogram& operator-=(const Histogram& other);  // for snapshot deltas
  bool operator==(const Histogram&) const = default;
};

/// Estimates the `q`-quantile (q in [0, 1]) of the observed distribution by
/// linear interpolation within the log2 bucket where the cumulative count
/// crosses q * count. Returns 0 for an empty histogram. The error is bounded
/// by the bucket width, so estimates are order-of-magnitude faithful — fine
/// for latency reporting, not for exact percentiles.
uint64_t EstimateQuantile(const Histogram& hist, double q);

// --- Storage -------------------------------------------------------------

/// One thread's (or one aggregated) worth of every metric.
struct MetricsBlock {
  std::array<uint64_t, kNumCounters> counters{};
  std::array<uint64_t, kNumPhases> phase_nanos{};
  std::array<uint64_t, kNumPhases> phase_calls{};
  std::array<Histogram, kNumHists> hists{};

  void Clear() { *this = MetricsBlock{}; }
  MetricsBlock& operator+=(const MetricsBlock& other);
  bool operator==(const MetricsBlock&) const = default;
};

/// after - before, element-wise. Only meaningful when `before` was
/// snapshotted earlier than `after` with no Reset() in between.
MetricsBlock Diff(const MetricsBlock& after, const MetricsBlock& before);

/// Process-wide registry of per-thread blocks. See the file comment for the
/// Snapshot()/Reset() synchronization contract.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Sum of every retired thread's totals plus all live thread blocks.
  /// Safe to call concurrently with active writers: live blocks are read
  /// through relaxed atomic loads (per-field torn-free, not a consistent
  /// cross-field cut — see the file comment).
  MetricsBlock Snapshot();

  /// Zeroes the retired totals and every live block. Writers must be
  /// quiescent (ordered before this call).
  void Reset();

  // Called by the thread-local holder; not for direct use.
  void Register(MetricsBlock* block);
  void Unregister(MetricsBlock* block);  // folds *block into retired totals

 private:
  MetricsRegistry() = default;

  std::mutex mu_;
  MetricsBlock retired_;
  std::vector<MetricsBlock*> live_;
};

namespace internal {

/// Registers the enclosing thread's block for its lifetime.
struct BlockHolder {
  MetricsBlock block;
  BlockHolder() { MetricsRegistry::Instance().Register(&block); }
  ~BlockHolder() { MetricsRegistry::Instance().Unregister(&block); }
  BlockHolder(const BlockHolder&) = delete;
  BlockHolder& operator=(const BlockHolder&) = delete;
};

}  // namespace internal

// --- Hot-path hooks ------------------------------------------------------

/// The calling thread's metrics slab (created and registered on first use).
inline MetricsBlock& LocalBlock() {
  thread_local internal::BlockHolder holder;
  return holder.block;
}

inline void Count(CounterId id, uint64_t n = 1) {
  SlotAdd(LocalBlock().counters[id], n);
}

/// Fused two-counter bump: one thread-local lookup instead of two. The TLS
/// access (with its dynamic-init guard) dominates the hook cost, so sites
/// inside the backward-search step use this to stay inside the overhead
/// budget (see "Overhead methodology" in docs/OBSERVABILITY.md).
inline void Count2(CounterId a, uint64_t na, CounterId b, uint64_t nb) {
  MetricsBlock& block = LocalBlock();
  SlotAdd(block.counters[a], na);
  SlotAdd(block.counters[b], nb);
}

inline void AddPhaseNanos(PhaseId phase, uint64_t nanos) {
  MetricsBlock& block = LocalBlock();
  SlotAdd(block.phase_nanos[phase], nanos);
  SlotAdd(block.phase_calls[phase], 1);
}

inline void Observe(HistId id, uint64_t value) {
  LocalBlock().hists[id].Observe(value);
}

/// RAII phase timer: charges the enclosing scope's wall time to `phase`.
class ScopedTimer {
 public:
  explicit ScopedTimer(PhaseId phase)
      : phase_(phase), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { AddPhaseNanos(phase_, ElapsedNanos()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  PhaseId phase_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII histogram timer: observes the enclosing scope's wall nanoseconds.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(HistId id)
      : id_(id), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistTimer() {
    Observe(id_, static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count()));
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  HistId id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bwtk::obs

// --- Instrumentation macros ----------------------------------------------
// All instrumentation sites use these macros, never the functions directly,
// so a single compile definition turns the whole subsystem into no-ops.
// The classes and functions above are defined unconditionally (identically
// in every translation unit — no ODR hazard); only the macro expansions
// change.

#if !defined(BWTK_DISABLE_METRICS)
#define BWTK_METRICS_ENABLED 1
#else
#define BWTK_METRICS_ENABLED 0
#endif

#define BWTK_OBS_CONCAT_INNER(a, b) a##b
#define BWTK_OBS_CONCAT(a, b) BWTK_OBS_CONCAT_INNER(a, b)

#if BWTK_METRICS_ENABLED

/// Adds 1 to counter `id` (a bare CounterId enumerator name).
#define BWTK_METRIC_COUNT(id) ::bwtk::obs::Count(::bwtk::obs::id)
/// Adds `n` to counter `id`.
#define BWTK_METRIC_COUNT_N(id, n) ::bwtk::obs::Count(::bwtk::obs::id, (n))
/// Adds `na` to counter `a` and `nb` to counter `b` with one TLS lookup.
#define BWTK_METRIC_COUNT2(a, na, b, nb) \
  ::bwtk::obs::Count2(::bwtk::obs::a, (na), ::bwtk::obs::b, (nb))
/// Records `value` into histogram `id`.
#define BWTK_METRIC_OBSERVE(id, value) \
  ::bwtk::obs::Observe(::bwtk::obs::id, (value))
/// Charges the rest of the enclosing scope's wall time to phase `id`.
#define BWTK_SCOPED_TIMER(id)                                  \
  ::bwtk::obs::ScopedTimer BWTK_OBS_CONCAT(bwtk_obs_timer_,    \
                                           __LINE__)(::bwtk::obs::id)
/// Observes the rest of the enclosing scope's wall nanos into histogram `id`.
#define BWTK_SCOPED_HIST_TIMER(id)                                  \
  ::bwtk::obs::ScopedHistTimer BWTK_OBS_CONCAT(bwtk_obs_htimer_,    \
                                               __LINE__)(::bwtk::obs::id)

#else  // BWTK_METRICS_ENABLED

#define BWTK_METRIC_COUNT(id) ((void)0)
#define BWTK_METRIC_COUNT_N(id, n) ((void)0)
#define BWTK_METRIC_COUNT2(a, na, b, nb) ((void)0)
#define BWTK_METRIC_OBSERVE(id, value) ((void)0)
#define BWTK_SCOPED_TIMER(id) ((void)0)
#define BWTK_SCOPED_HIST_TIMER(id) ((void)0)

#endif  // BWTK_METRICS_ENABLED

#endif  // BWTK_OBS_METRICS_H_
