#include "search/batch_searcher.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "search/kerror_search.h"
#include "search/wildcard_search.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "util/logging.h"

namespace bwtk {

namespace {

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Aux (worker-lane) trace ids live in the top of the per-batch id space so
// they can never collide with task indices.
constexpr uint64_t kAuxIdBase = 0xFFFF0000ULL;

}  // namespace

std::string_view BatchEngineName(BatchEngine engine) {
  switch (engine) {
    case BatchEngine::kAlgorithmA:
      return "algorithm_a";
    case BatchEngine::kSTree:
      return "stree";
    case BatchEngine::kKError:
      return "kerror";
    case BatchEngine::kWildcard:
      return "wildcard";
    case BatchEngine::kBidirectional:
      return "bidirectional";
    case BatchEngine::kAuto:
      return "auto";
  }
  return "unknown";
}

BatchEngine AutoPickEngine(size_t pattern_length, int32_t k,
                           bool bidir_available) {
  if (!bidir_available) return BatchEngine::kAlgorithmA;
  // Crossover calibrated from BENCH_bidir.json (bench/bench_bidir.cc),
  // synth-1M, m in {6, 8, 10, 12, 16, 20, 24, 36, 50, 100} x k in {0..5}
  // (EXPERIMENTS.md, medians of six full runs). The scheme walk wins or
  // ties every cell from 24 bp on, and below that every cell whose scheme
  // pieces can all hold two symbols (m >= 2k + 2); at k <= 1 that is every
  // measured length. Algorithm A keeps the short patterns with a large
  // budget, where the pieces shrink to single symbols and their bounds cut
  // nothing: at m = 6 and 8, k = 5, A answered about twice as fast. No
  // length below 6 was measured: m = 2..5 at k = 0 and m = 4..5 at k = 1
  // reach the walk by extrapolation (both engines are exact, so only speed
  // is at stake there). The floor is computed in 64 bits so a negative k
  // (a decode-failed placeholder, which no engine runs) cannot wrap it.
  constexpr int64_t kMeasuredLengthFloor = 24;
  const int64_t floor =
      std::min(kMeasuredLengthFloor, 2 * static_cast<int64_t>(k) + 2);
  return static_cast<int64_t>(pattern_length) >= floor
             ? BatchEngine::kBidirectional
             : BatchEngine::kAlgorithmA;
}

Result<std::vector<DnaCode>> DecodeBatchPattern(BatchEngine engine,
                                                std::string_view pattern) {
  if (engine == BatchEngine::kWildcard) {
    return ParseWildcardPattern(pattern);
  }
  return EncodeDna(pattern);
}

BatchOptions WithSharedResultCache(BatchOptions options) {
  if (options.result_cache_instance == nullptr &&
      options.result_cache.enabled) {
    options.result_cache_instance =
        std::make_shared<ResultCache>(options.result_cache);
  }
  return options;
}

// One engine per (worker, index): each engine is a thin const view of its
// shared index plus options, so a bank costs nothing to build and keeps
// workers symmetric with serial callers. Every FmIndex-backed family is
// instantiated eagerly — per-ticket engine overrides and kAuto dispatch
// mean any of them can run on any query; the bidirectional family exists
// iff the caller supplied BatchOptions::bidir_indexes.
struct EngineBank::Impl {
  BatchOptions options;
  std::vector<const FmIndex*> indexes;     // the index, or the shards
  const ShardedIndex* sharded = nullptr;   // non-null for a sharded group
  ResultCache* cache = nullptr;            // options.result_cache_instance
  uint64_t version = 0;                    // the group's cache-key version
  std::vector<AlgorithmA> a_engines;
  std::vector<STreeSearch> stree_engines;
  std::vector<KErrorSearch> kerror_engines;
  std::vector<WildcardSearch> wildcard_engines;
  // unique_ptr because BidirectionalSearch owns a mutex (scheme cache) and
  // cannot be vector-moved.
  std::vector<std::unique_ptr<BidirectionalSearch>> bidir_engines;
  AlgorithmAScratch scratch;  // reused across every query, never shrinks

  // The single-index bidirectional queries AnswerAll has in flight, one
  // per walk slot.
  struct Walking {
    uint64_t id = 0;
    const BatchQuery* query = nullptr;
    bool traced = false;
    obs::Trace trace;
  };
  BidirWalkSet walks{BidirWalkSet::kBatchWalks};
  std::vector<Walking> walking{BidirWalkSet::kBatchWalks};

  Impl(std::vector<const FmIndex*> group, const ShardedIndex* sharded_index,
       const BatchOptions& opts)
      : options(opts),
        indexes(std::move(group)),
        sharded(sharded_index),
        cache(opts.result_cache_instance.get()) {
    if (cache != nullptr) {
      version = sharded != nullptr ? ShardedIndexVersion(*sharded)
                                   : FmIndexVersion(*indexes[0]);
    }
    const size_t n = indexes.size();
    a_engines.reserve(n);
    stree_engines.reserve(n);
    kerror_engines.reserve(n);
    wildcard_engines.reserve(n);
    for (const FmIndex* index : indexes) {
      BWTK_CHECK(index != nullptr);
      a_engines.emplace_back(index, options.algorithm_a);
      stree_engines.emplace_back(index, options.stree);
      kerror_engines.emplace_back(index);
      wildcard_engines.emplace_back(index);
    }
    if (!options.bidir_indexes.empty()) {
      BWTK_CHECK_EQ(options.bidir_indexes.size(), n);
      bidir_engines.reserve(n);
      for (size_t s = 0; s < n; ++s) {
        const BiFmIndex* bidir = options.bidir_indexes[s];
        BWTK_CHECK(bidir != nullptr);
        // Alignment contract: slot s's bidirectional index must index the
        // same text as slot s's FmIndex (full content equality is the
        // caller's responsibility; the size check catches swapped slots).
        BWTK_CHECK_EQ(bidir->text_size(), indexes[s]->text_size());
        bidir_engines.push_back(
            std::make_unique<BidirectionalSearch>(bidir, options.bidir));
      }
    }
    BWTK_CHECK(options.engine != BatchEngine::kBidirectional ||
               !bidir_engines.empty())
        << "engine bidirectional needs BatchOptions::bidir_indexes";
  }

  // Stores a freshly computed answer for `query` in the result cache.
  void Remember(const BatchQuery& query, const QueryAnswer& answer) {
    if (cache == nullptr) return;
    cache->Insert(static_cast<uint8_t>(answer.engine), query.k, version,
                  query.pattern,
                  ResultCache::Entry{answer.hits, answer.stats,
                                     answer.seam_hits_deduped});
  }

  // A sharded k = 0 query without wildcards: every engine is exact
  // matching there, so one backward search + locate per shard answers it.
  bool PointLookupEligible(const BatchQuery& query) const {
    if (sharded == nullptr || query.k != 0 || query.pattern.empty()) {
      return false;
    }
    for (const DnaCode c : query.pattern) {
      if (c >= kDnaAlphabetSize) return false;
    }
    return true;
  }
};

EngineBank::EngineBank(const FmIndex* index, const BatchOptions& options)
    : impl_(std::make_unique<Impl>(std::vector<const FmIndex*>{index},
                                   nullptr, options)) {}

EngineBank::EngineBank(const ShardedIndex* index, const BatchOptions& options)
    : impl_(std::make_unique<Impl>(index->ShardPointers(), index, options)) {}

EngineBank::~EngineBank() = default;

QueryAnswer EngineBank::Answer(BatchEngine engine, const BatchQuery& query,
                               obs::TraceSink* sink, uint64_t trace_id,
                               uint32_t thread_index) {
  // The callbacks capture one pointer each, so std::function stores them
  // without allocating.
  struct One {
    QueryClaim claim;
    bool claimed = false;
    QueryAnswer answer;
  } one;
  one.claim = {&query, 0, trace_id};
  AnswerAll(
      engine,
      [&one](QueryClaim* claim) {
        if (one.claimed) return false;
        one.claimed = true;
        *claim = one.claim;
        return true;
      },
      [&one](uint64_t, QueryAnswer&& done) { one.answer = std::move(done); },
      sink, thread_index);
  return std::move(one.answer);
}

void EngineBank::AnswerAll(
    BatchEngine engine, const std::function<bool(QueryClaim*)>& next,
    const std::function<void(uint64_t id, QueryAnswer&&)>& done,
    obs::TraceSink* sink, uint32_t thread_index) {
  Impl& impl = *impl_;
  BidirWalkSet& walks = impl.walks;
  bool more = true;
  for (;;) {
    // Fill the free walk slots; a query that is not a walk is answered
    // while the walks in flight wait.
    while (more && walks.in_flight() < walks.width()) {
      QueryClaim claim;
      if (!next(&claim)) {
        more = false;
        break;
      }
      QueryAnswer answer;
      if (!StartOrAnswer(engine, claim, sink, thread_index, &answer)) {
        done(claim.id, std::move(answer));
      }
    }
    const size_t slot = walks.Next();
    if (slot == BidirWalkSet::kNoSlot) return;
    Impl::Walking& walking = impl.walking[slot];
    QueryAnswer answer;
    answer.engine = BatchEngine::kBidirectional;
    answer.hits = walks.TakeHits(slot);
    answer.stats = walks.stats(slot);
    if (walking.traced) {
      walking.trace.wall_ns = walks.own_nanos(slot);
      walking.trace.matches = answer.hits.size();
      walking.trace.stats = answer.stats;
      sink->Offer(std::move(walking.trace));
    }
    impl.Remember(*walking.query, answer);
    done(walking.id, std::move(answer));
  }
}

bool EngineBank::StartOrAnswer(BatchEngine engine, const QueryClaim& claim,
                               obs::TraceSink* sink, uint32_t thread_index,
                               QueryAnswer* answer) {
  Impl& impl = *impl_;
  const BatchQuery& query = *claim.query;
  // Trace labels, cache keys and served counters all attribute to the
  // engine the query actually runs under, so kAuto shares cache entries
  // with pools and Sessions that pin the same engine.
  answer->engine = Resolve(engine, query);
  if (query.k < 0) return false;
  if (impl.cache != nullptr) {
    ResultCache::Entry cached;
    if (impl.cache->Lookup(static_cast<uint8_t>(answer->engine), query.k,
                           impl.version, query.pattern, &cached)) {
      answer->hits = std::move(cached.hits);
      answer->stats = cached.stats;
      answer->seam_hits_deduped = cached.seam_hits_deduped;
      answer->cache_served = true;
      return false;
    }
  }
  if (impl.sharded == nullptr &&
      answer->engine == BatchEngine::kBidirectional) {
    const size_t slot = impl.walks.FreeSlot();
    Impl::Walking& walking = impl.walking[slot];
    walking.id = claim.id;
    walking.query = &query;
    walking.traced = obs::BeginQueryTrace(
        sink, claim.trace_id, BatchEngineName(answer->engine), query.k,
        query.pattern.size(), thread_index, 0, &walking.trace);
    impl.walks.Start(slot, *impl.bidir_engines[0], query.pattern, query.k,
                     walking.traced ? &walking.trace : nullptr);
    return true;
  }
  if (impl.sharded == nullptr) {
    obs::ScopedQueryTrace qt(sink, claim.trace_id,
                             BatchEngineName(answer->engine), query.k,
                             query.pattern.size(), thread_index, 0);
    answer->hits = RunWith(answer->engine, query, 0, &answer->stats);
    qt.Finish(answer->hits.size(), answer->stats);
  } else {
    const size_t num_indexes = impl.indexes.size();
    std::vector<std::vector<Occurrence>> parts(num_indexes);
    if (impl.PointLookupEligible(query)) {
      for (size_t s = 0; s < num_indexes; ++s) {
        const FmIndex& shard = *impl.indexes[s];
        const FmIndex::Range range = shard.MatchForward(query.pattern);
        if (range.empty()) continue;
        for (const size_t pos : shard.Locate(range, query.pattern.size())) {
          parts[s].push_back(Occurrence{pos, 0});
        }
      }
      BWTK_METRIC_COUNT(kCounterShardExactShortcuts);
    } else {
      BWTK_METRIC_COUNT_N(kCounterShardQueries, num_indexes);
      for (size_t s = 0; s < num_indexes; ++s) {
        SearchStats shard_stats;
        obs::ScopedQueryTrace qt(sink, claim.trace_id + s,
                                 BatchEngineName(answer->engine), query.k,
                                 query.pattern.size(), thread_index,
                                 static_cast<uint32_t>(s));
        parts[s] = RunWith(answer->engine, query, s, &shard_stats);
        qt.Finish(parts[s].size(), shard_stats);
        answer->stats += shard_stats;
      }
    }
    answer->seam_hits_deduped = ResolveShardedHits(
        impl.sharded->plan(), ShardedQueryWindow(query, answer->engine),
        parts.data(), &answer->hits);
  }
  impl.Remember(query, *answer);
  return false;
}

bool EngineBank::Supports(BatchEngine engine) const {
  return engine != BatchEngine::kBidirectional ||
         !impl_->bidir_engines.empty();
}

BatchEngine EngineBank::Resolve(BatchEngine engine,
                                const BatchQuery& query) const {
  if (engine != BatchEngine::kAuto) return engine;
  return AutoPickEngine(query.pattern.size(), query.k,
                        !impl_->bidir_engines.empty());
}

std::vector<Occurrence> EngineBank::RunWith(BatchEngine engine,
                                            const BatchQuery& query,
                                            size_t index_slot,
                                            SearchStats* stats) {
  std::vector<Occurrence> hits;
  // A negative budget marks a query skipped at decode time (ASCII
  // fail_fast = false path, or a rejected serve ticket); no search runs.
  if (query.k < 0) {
    if (stats != nullptr) *stats = SearchStats{};
    return hits;
  }
  switch (Resolve(engine, query)) {
    case BatchEngine::kAlgorithmA:
      hits = impl_->a_engines[index_slot].Search(query.pattern, query.k,
                                                 stats, &impl_->scratch);
      break;
    case BatchEngine::kSTree:
      hits = impl_->stree_engines[index_slot].Search(query.pattern, query.k,
                                                     stats);
      break;
    case BatchEngine::kKError: {
      // Project each best-per-position alignment onto the Hamming result
      // shape; the matched length is dropped (see BatchEngine).
      const std::vector<EditOccurrence> edits =
          impl_->kerror_engines[index_slot].Search(query.pattern, query.k,
                                                   stats);
      hits.reserve(edits.size());
      for (const EditOccurrence& e : edits) {
        hits.push_back(Occurrence{e.position, e.edits});
      }
      break;
    }
    case BatchEngine::kWildcard:
      hits = impl_->wildcard_engines[index_slot].Search(query.pattern,
                                                        query.k, stats);
      break;
    case BatchEngine::kBidirectional:
      BWTK_CHECK(!impl_->bidir_engines.empty())
          << "kBidirectional needs BatchOptions::bidir_indexes";
      hits = impl_->bidir_engines[index_slot]->Search(query.pattern, query.k,
                                                      stats);
      break;
    case BatchEngine::kAuto:
      // Resolve never returns kAuto.
      BWTK_CHECK(false);
      break;
  }
  // Every engine returns its hits position-sorted (KErrorSearch's are
  // unique per position, so the projection above keeps that order).
  return hits;
}

size_t EngineBank::num_indexes() const { return impl_->indexes.size(); }

// All pool state. The mutex guards the batch hand-off (generation counter,
// batch pointers, completion count); the query path itself is lock-free —
// workers claim task indices from `cursor` and write disjoint slots of the
// output vector, which is pre-sized before workers wake. A task is one
// query, answered against the whole index group by the worker's one
// EngineBank::AnswerAll call per batch.
struct BatchSearcher::Pool {
  const FmIndex* index = nullptr;         // exactly one of these is set
  const ShardedIndex* sharded = nullptr;
  size_t num_indexes = 1;                 // 1, or the shard count
  BatchOptions options;  // result_cache_instance set iff caching is on
  int num_threads;

  // Per-worker batch totals, tid-indexed, valid per batch.
  struct WorkerTotals {
    SearchStats stats;
    uint64_t seam_hits_deduped = 0;
  };
  std::vector<std::thread> workers;
  std::vector<WorkerTotals> thread_totals;

  std::mutex mu;
  std::condition_variable work_cv;  // workers wait for a new generation
  std::condition_variable done_cv;  // Search waits for workers_left == 0
  uint64_t generation = 0;          // bumped per batch (guarded by mu)
  bool shutdown = false;            // (guarded by mu)
  int workers_left = 0;             // workers still in the batch (mu)

  // Current batch, valid while workers_left > 0; `out` has one slot per
  // query.
  const BatchQuery* queries = nullptr;
  size_t task_count = 0;
  std::vector<std::vector<Occurrence>>* out = nullptr;
  std::atomic<size_t> cursor{0};

  // Tracing. The sink exists iff tracing is on (trace_sample_rate > 0 in a
  // metrics-enabled build); a null sink makes every per-query trace hook a
  // cheap early-out. trace_base is the high half of this batch's trace ids,
  // published under `mu` with the rest of the batch hand-off.
  std::unique_ptr<obs::TraceSink> sink;
  uint64_t batch_seq = 0;    // batches issued so far (guarded by mu)
  uint64_t trace_base = 0;   // (batch_seq << 32) for the live batch (mu)

  void WorkerLoop(int tid) {
    uint64_t seen = 0;
    // The bank owns this worker's engines and AlgorithmA scratch; AnswerAll()
    // is the same query path the serving layer drives, so batch and
    // streamed execution cannot drift apart.
    EngineBank bank = sharded != nullptr ? EngineBank(sharded, options)
                                         : EngineBank(index, options);
    const uint32_t thread_index = static_cast<uint32_t>(tid);
    for (;;) {
      uint64_t base = 0;
      obs::TraceSink* tsink = nullptr;
      const uint64_t wait_begin_ns = obs::TraceClockNanos();
      uint64_t wake_ns = 0;
      {
        // The wait is the worker's queue time: it covers pool start-up, the
        // gap between batches, and the final wake before shutdown.
        BWTK_SCOPED_TIMER(kPhaseQueueWait);
        BWTK_SCOPED_HIST_TIMER(kHistQueueWaitNanos);
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        base = trace_base;
        tsink = sink.get();
        wake_ns = obs::TraceClockNanos();
      }
      BWTK_SCOPED_TIMER(kPhaseWorkerSearch);
      WorkerTotals totals;
      uint64_t tasks_run = 0;
      // The bank claims a new query whenever a walk slot frees, so this
      // worker keeps up to BidirWalkSet::kBatchWalks queries in flight.
      bank.AnswerAll(
          options.engine,
          [&](QueryClaim* claim) {
            for (;;) {
              const size_t q = cursor.fetch_add(1, std::memory_order_relaxed);
              if (q >= task_count) return false;
              // A negative budget marks a query skipped at decode time
              // (ASCII fail_fast = false path); its slot stays empty.
              if (queries[q].k < 0) continue;
              BWTK_METRIC_COUNT(kCounterBatchQueries);
              // Trace id = batch sequence | task index: stable across runs,
              // so the sampled subset does not depend on thread assignment.
              *claim = {&queries[q], q, base | (q * num_indexes)};
              return true;
            }
          },
          [&](uint64_t q, QueryAnswer&& answer) {
            (*out)[q] = std::move(answer.hits);
            totals.stats += answer.stats;
            totals.seam_hits_deduped += answer.seam_hits_deduped;
            ++tasks_run;
          },
          tsink, thread_index);
      if (tsink != nullptr) {
        // One aux lane per (batch, worker): how long the worker queued and
        // how long it searched. Kept out of the slow-query log (a lane spans
        // the whole batch and would always "win").
        obs::Trace lane;
        lane.trace_id = base | (kAuxIdBase + static_cast<uint64_t>(tid));
        lane.engine = "batch_worker";
        lane.thread_index = thread_index;
        lane.begin_ns = wait_begin_ns;
        lane.matches = tasks_run;
        const uint64_t end_ns = obs::TraceClockNanos();
        lane.wall_ns = end_ns - wait_begin_ns;
        lane.spans.push_back(
            {"queue_wait", wait_begin_ns, wake_ns - wait_begin_ns, 0});
        lane.spans.push_back({"worker_search", wake_ns, end_ns - wake_ns, 0});
        tsink->OfferAux(std::move(lane));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        thread_totals[tid] = totals;
        if (--workers_left == 0) done_cv.notify_one();
      }
    }
  }

  // Runs one batch into result->occurrences (pre-sized by the caller, one
  // slot per query) and folds the workers' totals into `result` in tid
  // order.
  void RunTasks(const std::vector<BatchQuery>& batch, BatchResult* result) {
    BWTK_METRIC_COUNT(kCounterBatchBatches);
    {
      std::lock_guard<std::mutex> lock(mu);
      queries = batch.data();
      task_count = batch.size();
      out = &result->occurrences;
      cursor.store(0, std::memory_order_relaxed);
      trace_base = batch_seq << 32;
      ++batch_seq;
      workers_left = num_threads;
      for (WorkerTotals& totals : thread_totals) totals = WorkerTotals{};
      ++generation;
    }
    work_cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      done_cv.wait(lock, [&] { return workers_left == 0; });
      queries = nullptr;
      out = nullptr;
    }
    // Merge in tid order so the aggregate is reproducible run to run even
    // though the task→thread assignment is not.
    for (const WorkerTotals& totals : thread_totals) {
      result->stats += totals.stats;
      result->seam_hits_deduped += totals.seam_hits_deduped;
    }
    if (sink != nullptr && !options.trace_out.empty()) {
      const Status status = obs::WriteTraceFile(*sink, options.trace_out);
      if (!status.ok()) {
        BWTK_LOG(Warning) << "trace export failed: " << status.message();
      }
    }
  }

  void Start(const BatchOptions& opts) {
    options = WithSharedResultCache(opts);
    num_threads = ResolveThreadCount(options.num_threads);
    if (BWTK_METRICS_ENABLED && options.trace_sample_rate > 0.0) {
      obs::TraceSinkOptions sink_options;
      sink_options.sample_rate = options.trace_sample_rate;
      sink_options.slow_trace_count = options.slow_trace_count;
      sink = std::make_unique<obs::TraceSink>(sink_options);
    }
    thread_totals.resize(num_threads);
    workers.reserve(num_threads);
    for (int tid = 0; tid < num_threads; ++tid) {
      workers.emplace_back([this, tid] { WorkerLoop(tid); });
    }
  }
};

BatchSearcher::BatchSearcher(const FmIndex* index, const BatchOptions& options)
    : pool_(std::make_unique<Pool>()) {
  BWTK_CHECK(index != nullptr);
  pool_->index = index;
  pool_->Start(options);
}

BatchSearcher::BatchSearcher(const ShardedIndex* index,
                             const BatchOptions& options)
    : pool_(std::make_unique<Pool>()) {
  BWTK_CHECK(index != nullptr);
  pool_->sharded = index;
  pool_->num_indexes = index->num_shards();
  pool_->Start(options);
}

BatchSearcher::~BatchSearcher() {
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->shutdown = true;
  }
  pool_->work_cv.notify_all();
  for (std::thread& worker : pool_->workers) worker.join();
}

int BatchSearcher::num_threads() const { return pool_->num_threads; }

const obs::TraceSink* BatchSearcher::trace_sink() const {
  return pool_->sink.get();
}

BatchResult BatchSearcher::Search(const std::vector<BatchQuery>& queries) {
  BatchResult result;
  if (queries.empty()) return result;
  result.occurrences.resize(queries.size());
  pool_->RunTasks(queries, &result);
  return result;
}

Result<std::vector<BatchQuery>> BatchSearcher::DecodeAscii(
    const BatchOptions& options, const std::vector<std::string>& patterns,
    int32_t k, size_t* failed) {
  std::vector<BatchQuery> queries(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto codes = DecodeBatchPattern(options.engine, patterns[i]);
    if (!codes.ok()) {
      if (options.fail_fast) {
        return Status::InvalidArgument("batch query " + std::to_string(i) +
                                       ": " + codes.status().message());
      }
      ++*failed;
      queries[i].k = -1;  // negative budget: the worker skips the query
      continue;
    }
    queries[i].pattern = std::move(codes).value();
    queries[i].k = k;
  }
  return queries;
}

Result<BatchResult> BatchSearcher::Search(
    const std::vector<std::string>& patterns, int32_t k) {
  size_t failed = 0;
  BWTK_ASSIGN_OR_RETURN(std::vector<BatchQuery> queries,
                        DecodeAscii(pool_->options, patterns, k, &failed));
  BatchResult result = Search(queries);
  result.failed_queries = failed;
  return result;
}

}  // namespace bwtk
