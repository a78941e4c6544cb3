#include "search/batch_searcher.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "search/kerror_search.h"
#include "search/wildcard_search.h"
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
    case BatchEngine::kDictionary:
      return "dictionary";
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
  // synth-1M, m in {24, 36, 50, 100} x k in {0..5}: the scheme walk wins
  // every measured cell — 2.7x at (m=24, k=0), growing with both m and k
  // to 384x at (m=50, k=5) — so any read at least as long as the measured
  // floor routes to it outright. Below the measured lengths it still wins
  // whenever the budget is large enough to multiply the enumeration
  // frontier AND the pattern is long enough that each piece meaningfully
  // constrains it (every piece >= 2 symbols); for the remaining short
  // low-budget reads Algorithm A's reuse machinery is already cheap and
  // the scheme's piece bounds have nothing to cut, so it keeps them.
  constexpr size_t kMeasuredLengthFloor = 24;
  if (pattern_length >= kMeasuredLengthFloor) {
    return BatchEngine::kBidirectional;
  }
  if (k >= 2 && pattern_length >= 2 * static_cast<size_t>(k) + 2) {
    return BatchEngine::kBidirectional;
  }
  return BatchEngine::kAlgorithmA;
}

Result<std::vector<DnaCode>> DecodeBatchPattern(BatchEngine engine,
                                                std::string_view pattern) {
  if (engine == BatchEngine::kWildcard) {
    return ParseWildcardPattern(pattern);
  }
  return EncodeDna(pattern);
}

// One engine per (worker, index): each engine is a thin const view of its
// shared index plus options, so a bank costs nothing to build and keeps
// workers symmetric with serial callers. Every FmIndex-backed family is
// instantiated eagerly — per-ticket engine overrides (RunWith) and kAuto
// dispatch mean any of them can run on any task; the bidirectional family
// exists iff the caller supplied BatchOptions::bidir_indexes.
struct EngineBank::Impl {
  BatchOptions options;
  size_t num_indexes = 0;
  std::vector<AlgorithmA> a_engines;
  std::vector<STreeSearch> stree_engines;
  std::vector<KErrorSearch> kerror_engines;
  std::vector<WildcardSearch> wildcard_engines;
  std::vector<DictionarySearcher> dict_engines;
  // unique_ptr because BidirectionalSearch owns a mutex (scheme cache) and
  // cannot be vector-moved.
  std::vector<std::unique_ptr<BidirectionalSearch>> bidir_engines;
  AlgorithmAScratch scratch;  // reused across every Run, never shrinks
};

EngineBank::EngineBank(const std::vector<const FmIndex*>& indexes,
                       const BatchOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BWTK_CHECK(!indexes.empty());
  for (const FmIndex* index : indexes) BWTK_CHECK(index != nullptr);
  impl_->options = options;
  impl_->num_indexes = indexes.size();
  impl_->a_engines.reserve(indexes.size());
  impl_->stree_engines.reserve(indexes.size());
  impl_->kerror_engines.reserve(indexes.size());
  impl_->wildcard_engines.reserve(indexes.size());
  impl_->dict_engines.reserve(indexes.size());
  for (const FmIndex* index : indexes) {
    impl_->a_engines.emplace_back(index, options.algorithm_a);
    impl_->stree_engines.emplace_back(index, options.stree);
    impl_->kerror_engines.emplace_back(index);
    impl_->wildcard_engines.emplace_back(index);
    impl_->dict_engines.emplace_back(index, options.dictionary);
  }
  if (!options.bidir_indexes.empty()) {
    BWTK_CHECK_EQ(options.bidir_indexes.size(), indexes.size());
    impl_->bidir_engines.reserve(indexes.size());
    for (size_t s = 0; s < indexes.size(); ++s) {
      const BiFmIndex* bidir = options.bidir_indexes[s];
      BWTK_CHECK(bidir != nullptr);
      // Alignment contract: slot s's bidirectional index must index the
      // same text as slot s's FmIndex (full content equality is the
      // caller's responsibility; the size check catches swapped slots).
      BWTK_CHECK_EQ(bidir->text_size(), indexes[s]->text_size());
      impl_->bidir_engines.push_back(
          std::make_unique<BidirectionalSearch>(bidir, options.bidir));
    }
  }
  BWTK_CHECK(Supports(options.engine))
      << "engine " << BatchEngineName(options.engine)
      << " needs BatchOptions::bidir_indexes";
}

EngineBank::~EngineBank() = default;

std::vector<Occurrence> EngineBank::Run(const BatchQuery& query,
                                        size_t index_slot,
                                        SearchStats* stats) {
  return RunWith(impl_->options.engine, query, index_slot, stats);
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
    case BatchEngine::kDictionary: {
      // Ticket-at-a-time form: a one-pattern trie, one joint descent. Build
      // can only fail on malformed input (empty pattern, out-of-range
      // codes), which — like an empty pattern under the other engines —
      // yields an empty hit list.
      Result<PatternSetTrie> trie = PatternSetTrie::Build({query.pattern});
      if (trie.ok()) {
        std::vector<std::vector<Occurrence>> per_pattern =
            impl_->dict_engines[index_slot].SearchAll(*trie, query.k, stats);
        hits = std::move(per_pattern[0]);
      } else if (stats != nullptr) {
        *stats = SearchStats{};
      }
      break;
    }
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

std::vector<std::vector<Occurrence>> EngineBank::RunDictionary(
    const PatternSetTrie& trie, int32_t k, size_t index_slot,
    SearchStats* stats) {
  BWTK_CHECK(impl_->options.engine == BatchEngine::kDictionary);
  // SearchAll's per-pattern lists are position-sorted, as Run's are.
  return impl_->dict_engines[index_slot].SearchAll(trie, k, stats);
}

std::string_view EngineBank::engine_name() const {
  return BatchEngineName(impl_->options.engine);
}

size_t EngineBank::num_indexes() const { return impl_->num_indexes; }

// All pool state. The mutex guards the batch hand-off (generation counter,
// batch pointers, completion count); the query path itself is lock-free —
// workers claim task indices from `cursor` and write disjoint slots of the
// output vector, which is pre-sized before workers wake. A task is a
// (query, index) pair: task t runs queries[t / S] against indexes[t % S],
// where S = indexes.size(). For the common single-index pool the task index
// IS the query index.
struct BatchSearcher::Pool {
  std::vector<const FmIndex*> indexes;
  BatchOptions options;
  int num_threads;

  std::vector<std::thread> workers;
  std::vector<SearchStats> thread_stats;  // tid-indexed, valid per batch

  std::mutex mu;
  std::condition_variable work_cv;  // workers wait for a new generation
  std::condition_variable done_cv;  // Search waits for workers_left == 0
  uint64_t generation = 0;          // bumped per batch (guarded by mu)
  bool shutdown = false;            // (guarded by mu)
  int workers_left = 0;             // workers still in the batch (mu)

  // Current batch, valid while workers_left > 0. `out` has one slot per
  // (query, index) pair (query_count * indexes.size()).
  const BatchQuery* queries = nullptr;
  size_t query_count = 0;
  size_t task_count = 0;
  std::vector<std::vector<Occurrence>>* out = nullptr;
  std::atomic<size_t> cursor{0};

  // kDictionary batches are dispatched at group granularity: the submitting
  // thread folds the batch's valid queries into one PatternSetTrie per
  // (pattern length, k) — usually a single group for a real barcode batch —
  // and a task is a (group, index) pair whose worker answers the whole
  // group with one joint descent, scattering per-pattern hits back into the
  // same per-(query, index) `out` slots the per-query dispatch fills.
  // Workers write disjoint slots because each query belongs to exactly one
  // group. Valid for the live batch, guarded by the same hand-off as
  // `queries`.
  struct DictGroup {
    PatternSetTrie trie;
    int32_t k = 0;
    std::vector<size_t> query_ids;  // indexes into the batch, input order
  };
  std::vector<DictGroup> dict_groups;

  // Exact-duplicate result cache, consulted per (query, index) task before
  // the engine runs. Either the caller-provided shared instance or a
  // private one; null when caching is off. Dictionary batches bypass it
  // (they dispatch at group granularity).
  std::shared_ptr<ResultCache> cache;
  std::vector<uint64_t> index_versions;  // per slot, for the cache key

  // Tracing. The sink exists iff tracing is on (trace_sample_rate > 0 in a
  // metrics-enabled build); a null sink makes every per-query trace hook a
  // cheap early-out. trace_base is the high half of this batch's trace ids,
  // published under `mu` with the rest of the batch hand-off.
  std::unique_ptr<obs::TraceSink> sink;
  uint64_t batch_seq = 0;    // batches issued so far (guarded by mu)
  uint64_t trace_base = 0;   // (batch_seq << 32) for the live batch (mu)

  void WorkerLoop(int tid) {
    uint64_t seen = 0;
    const size_t num_indexes = indexes.size();
    // The bank owns this worker's engines and AlgorithmA scratch; Run() is
    // the same task-granular entry point the serving layer drives, so batch
    // and streamed execution cannot drift apart.
    EngineBank bank(indexes, options);
    const std::string_view engine_name = bank.engine_name();
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
      SearchStats batch_stats;
      uint64_t tasks_run = 0;
      if (options.engine == BatchEngine::kDictionary) {
        // Group-granular dispatch: task t answers dict_groups[t / S] against
        // index t % S with ONE joint trie descent, then scatters the
        // per-pattern lists into the (query, index) slots.
        for (;;) {
          const size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
          if (t >= task_count) break;
          const size_t g = t / num_indexes;
          const size_t s = t % num_indexes;
          const DictGroup& group = dict_groups[g];
          BWTK_METRIC_COUNT_N(kCounterBatchQueries, group.query_ids.size());
          SearchStats task_stats;
          // Trace id = batch sequence | task index, as below; one trace
          // covers the whole group's descent.
          obs::ScopedQueryTrace qt(tsink, base | t, engine_name, group.k,
                                   group.trie.length(),
                                   static_cast<uint32_t>(tid),
                                   static_cast<uint32_t>(s));
          std::vector<std::vector<Occurrence>> per_pattern =
              bank.RunDictionary(group.trie, group.k, s, &task_stats);
          uint64_t matches = 0;
          for (size_t j = 0; j < group.query_ids.size(); ++j) {
            matches += per_pattern[j].size();
            (*out)[group.query_ids[j] * num_indexes + s] =
                std::move(per_pattern[j]);
          }
          qt.Finish(matches, task_stats);
          batch_stats += task_stats;
          ++tasks_run;
        }
      } else {
        for (;;) {
          const size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
          if (t >= task_count) break;
          const size_t q = t / num_indexes;
          const size_t s = t % num_indexes;
          const BatchQuery& query = queries[q];
          // A negative budget marks a query skipped at decode time (ASCII
          // fail_fast = false path); its slots stay empty.
          if (query.k < 0) continue;
          BWTK_METRIC_COUNT(kCounterBatchQueries);
          // Everything downstream — trace label, cache key, execution —
          // attributes to the engine this query actually runs under; for a
          // pinned pool Resolve is the identity, under kAuto it is the
          // per-query pick (so kAuto shares cache entries with pools that
          // pin the same engine).
          const BatchEngine resolved = bank.Resolve(options.engine, query);
          const uint8_t engine_id = static_cast<uint8_t>(resolved);
          if (cache != nullptr) {
            ResultCache::Entry cached;
            if (cache->Lookup(engine_id, query.k, index_versions[s],
                              query.pattern, &cached)) {
              // Served from cache: the stored stats are the ones the
              // original execution produced, so the aggregate is identical
              // to a cold run.
              (*out)[t] = std::move(cached.hits);
              batch_stats += cached.stats;
              ++tasks_run;
              continue;
            }
          }
          SearchStats query_stats;
          // Trace id = batch sequence | task index: stable across runs, so
          // the sampled subset does not depend on thread assignment.
          obs::ScopedQueryTrace qt(tsink, base | t,
                                   BatchEngineName(resolved), query.k,
                                   query.pattern.size(),
                                   static_cast<uint32_t>(tid),
                                   static_cast<uint32_t>(s));
          std::vector<Occurrence> hits =
              bank.RunWith(resolved, query, s, &query_stats);
          qt.Finish(hits.size(), query_stats);
          if (cache != nullptr) {
            cache->Insert(engine_id, query.k, index_versions[s],
                          query.pattern,
                          ResultCache::Entry{hits, query_stats, 0});
          }
          (*out)[t] = std::move(hits);
          batch_stats += query_stats;
          ++tasks_run;
        }
      }
      if (tsink != nullptr) {
        // One aux lane per (batch, worker): how long the worker queued and
        // how long it searched. Kept out of the slow-query log (a lane spans
        // the whole batch and would always "win").
        obs::Trace lane;
        lane.trace_id = base | (kAuxIdBase + static_cast<uint64_t>(tid));
        lane.engine = "batch_worker";
        lane.thread_index = static_cast<uint32_t>(tid);
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
        thread_stats[tid] = batch_stats;
        if (--workers_left == 0) done_cv.notify_one();
      }
    }
  }

  // Folds a kDictionary batch into per-(length, k) trie groups. Queries
  // skipped at decode time (k < 0), empty patterns, and patterns carrying
  // non-DNA codes get no group — their slots stay empty, matching the
  // per-query engines' handling of the same inputs.
  std::vector<DictGroup> BuildDictGroups(
      const std::vector<BatchQuery>& batch) {
    std::map<std::pair<size_t, int32_t>, size_t> group_of;  // key -> index
    std::vector<DictGroup> groups;
    std::vector<std::vector<std::vector<DnaCode>>> group_patterns;
    for (size_t i = 0; i < batch.size(); ++i) {
      const BatchQuery& query = batch[i];
      if (query.k < 0 || query.pattern.empty()) continue;
      bool valid = true;
      for (const DnaCode c : query.pattern) {
        if (c >= kDnaAlphabetSize) {
          valid = false;
          break;
        }
      }
      if (!valid) continue;
      const std::pair<size_t, int32_t> key{query.pattern.size(), query.k};
      auto [it, inserted] = group_of.try_emplace(key, groups.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().k = query.k;
        group_patterns.emplace_back();
      }
      groups[it->second].query_ids.push_back(i);
      group_patterns[it->second].push_back(query.pattern);
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      // Cannot fail: the patterns are non-empty, equal-length, code-valid,
      // and duplicates are explicitly allowed (each repeated pattern simply
      // receives a copy of its canonical pattern's hits).
      Result<PatternSetTrie> trie = PatternSetTrie::Build(
          group_patterns[g], {.allow_duplicates = true});
      BWTK_CHECK(trie.ok());
      groups[g].trie = std::move(trie).value();
    }
    return groups;
  }

  // Runs one batch of query_count * indexes.size() tasks into `slots`
  // (pre-sized by the caller) and returns the tid-order merged stats.
  // kDictionary batches run dict_groups.size() * indexes.size() tasks
  // instead, into the same slots.
  SearchStats RunTasks(const std::vector<BatchQuery>& batch,
                       std::vector<std::vector<Occurrence>>* slots) {
    BWTK_METRIC_COUNT(kCounterBatchBatches);
    const bool dict = options.engine == BatchEngine::kDictionary;
    std::vector<DictGroup> groups;
    if (dict) groups = BuildDictGroups(batch);
    {
      std::lock_guard<std::mutex> lock(mu);
      queries = batch.data();
      query_count = batch.size();
      dict_groups = std::move(groups);
      task_count = (dict ? dict_groups.size() : batch.size()) *
                   indexes.size();
      out = slots;
      cursor.store(0, std::memory_order_relaxed);
      trace_base = batch_seq << 32;
      ++batch_seq;
      workers_left = num_threads;
      for (SearchStats& stats : thread_stats) stats = SearchStats{};
      ++generation;
    }
    work_cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      done_cv.wait(lock, [&] { return workers_left == 0; });
      queries = nullptr;
      out = nullptr;
      dict_groups.clear();
    }
    // Merge in tid order so the aggregate is reproducible run to run even
    // though the task→thread assignment is not.
    SearchStats total;
    for (const SearchStats& stats : thread_stats) total += stats;
    if (sink != nullptr && !options.trace_out.empty()) {
      const Status status = obs::WriteTraceFile(*sink, options.trace_out);
      if (!status.ok()) {
        BWTK_LOG(Warning) << "trace export failed: " << status.message();
      }
    }
    return total;
  }
};

BatchSearcher::BatchSearcher(const FmIndex* index, const BatchOptions& options)
    : BatchSearcher(std::vector<const FmIndex*>{index}, options) {}

BatchSearcher::BatchSearcher(std::vector<const FmIndex*> indexes,
                             const BatchOptions& options)
    : pool_(std::make_unique<Pool>()) {
  BWTK_CHECK(!indexes.empty());
  for (const FmIndex* index : indexes) BWTK_CHECK(index != nullptr);
  pool_->indexes = std::move(indexes);
  pool_->options = options;
  pool_->num_threads = ResolveThreadCount(options.num_threads);
  if (BWTK_METRICS_ENABLED && options.trace_sample_rate > 0.0) {
    obs::TraceSinkOptions sink_options;
    sink_options.sample_rate = options.trace_sample_rate;
    sink_options.slow_trace_count = options.slow_trace_count;
    pool_->sink = std::make_unique<obs::TraceSink>(sink_options);
  }
  if (options.result_cache_instance != nullptr) {
    pool_->cache = options.result_cache_instance;
  } else if (options.result_cache.enabled) {
    pool_->cache = std::make_shared<ResultCache>(options.result_cache);
  }
  if (pool_->cache != nullptr) {
    pool_->index_versions.reserve(pool_->indexes.size());
    for (const FmIndex* index : pool_->indexes) {
      pool_->index_versions.push_back(FmIndexVersion(*index));
    }
  }
  pool_->thread_stats.resize(pool_->num_threads);
  pool_->workers.reserve(pool_->num_threads);
  for (int tid = 0; tid < pool_->num_threads; ++tid) {
    pool_->workers.emplace_back([pool = pool_.get(), tid] {
      pool->WorkerLoop(tid);
    });
  }
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

size_t BatchSearcher::num_indexes() const { return pool_->indexes.size(); }

const obs::TraceSink* BatchSearcher::trace_sink() const {
  return pool_->sink.get();
}

BatchResult BatchSearcher::Search(const std::vector<BatchQuery>& queries) {
  BatchResult result;
  if (queries.empty()) return result;
  const size_t num_indexes = pool_->indexes.size();
  if (num_indexes == 1) {
    result.occurrences.resize(queries.size());
    result.stats = pool_->RunTasks(queries, &result.occurrences);
    return result;
  }
  // Index group: run the full fanout, then fold each query's per-index
  // lists into one sorted union (local coordinates, duplicates kept — seam
  // semantics belong to ShardedBatchSearcher).
  std::vector<std::vector<Occurrence>> slots(queries.size() * num_indexes);
  result.stats = pool_->RunTasks(queries, &slots);
  result.occurrences.resize(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<Occurrence>& merged = result.occurrences[q];
    size_t total = 0;
    for (size_t s = 0; s < num_indexes; ++s) {
      total += slots[q * num_indexes + s].size();
    }
    merged.reserve(total);
    for (size_t s = 0; s < num_indexes; ++s) {
      std::vector<Occurrence>& part = slots[q * num_indexes + s];
      merged.insert(merged.end(), part.begin(), part.end());
      part.clear();
    }
    NormalizeOccurrences(&merged);
  }
  return result;
}

BatchFanoutResult BatchSearcher::SearchFanout(
    const std::vector<BatchQuery>& queries) {
  BatchFanoutResult result;
  result.occurrences.resize(queries.size() * pool_->indexes.size());
  if (queries.empty()) return result;
  result.stats = pool_->RunTasks(queries, &result.occurrences);
  return result;
}

Result<BatchResult> BatchSearcher::Search(
    const std::vector<std::string>& patterns, int32_t k) {
  std::vector<BatchQuery> queries(patterns.size());
  size_t failed = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    auto codes = DecodeBatchPattern(pool_->options.engine, patterns[i]);
    if (!codes.ok()) {
      if (pool_->options.fail_fast) {
        return Status::InvalidArgument("batch query " + std::to_string(i) +
                                       ": " + codes.status().message());
      }
      ++failed;
      queries[i].k = -1;  // negative budget: the worker skips the task
      continue;
    }
    queries[i].pattern = std::move(codes).value();
    queries[i].k = k;
  }
  BatchResult result = Search(queries);
  result.failed_queries = failed;
  return result;
}

}  // namespace bwtk
