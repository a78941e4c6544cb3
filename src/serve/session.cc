#include "serve/session.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "shard/sharded_searcher.h"
#include "util/logging.h"

namespace bwtk::serve {

namespace {

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

enum class LifecycleState { kServing, kDraining, kDrained, kStopped };

// The per-engine served-ticket counter. Callers pass the engine a ticket
// actually ran under (QueryResult::engine), so kAuto tickets attribute to
// their resolved pick — there is no separate "auto" bucket.
obs::CounterId ServedCounter(BatchEngine engine) {
  switch (engine) {
    case BatchEngine::kAlgorithmA: return obs::kCounterServeServedAlgorithmA;
    case BatchEngine::kSTree: return obs::kCounterServeServedStree;
    case BatchEngine::kKError: return obs::kCounterServeServedKError;
    case BatchEngine::kWildcard: return obs::kCounterServeServedWildcard;
    case BatchEngine::kBidirectional:
      return obs::kCounterServeServedBidirectional;
    case BatchEngine::kAuto: break;  // resolved before counting
  }
  return obs::kCounterServeServedAlgorithmA;
}

// One admitted query waiting in (or claimed from) the queue.
struct Pending {
  Ticket ticket = 0;
  BatchQuery query;
  // The engine this ticket runs under (configured engine, or the validated
  // per-ticket override); kAuto still unresolved at this point.
  BatchEngine engine = BatchEngine::kAlgorithmA;
  Callback callback;  // empty for poll-path tickets
  uint64_t admitted_ns = 0;
};

}  // namespace

struct Session::Impl {
  // Immutable after construction. Exactly one of index / sharded is set.
  const FmIndex* index = nullptr;
  const ShardedIndex* sharded = nullptr;
  SessionOptions options;  // batch.result_cache_instance set iff caching
  int num_threads = 0;
  std::unique_ptr<obs::TraceSink> sink;

  // Everything below is guarded by `mu` except where noted.
  mutable std::mutex mu;
  std::condition_variable work_cv;   // workers: queue non-empty / lifecycle
  std::condition_variable done_cv;   // waiters: a ticket completed
  std::condition_variable idle_cv;   // Drain: queue empty and nothing running
  LifecycleState state = LifecycleState::kServing;
  bool paused = false;

  std::deque<Pending> queue;
  size_t running = 0;    // tickets currently executing on a worker
  size_t inflight = 0;   // admitted, result not yet collected
  Ticket next_ticket = 1;

  // Executed poll-path tickets, keyed by ticket, consumed exactly once.
  std::unordered_map<Ticket, QueryResult> done;
  // Poll-path tickets that are admitted or executing (so Wait can tell
  // "not yet done" from "will never be done").
  // Invariant: a poll ticket is in exactly one of `outstanding` / `done`
  // from admission until collection.
  std::unordered_map<Ticket, bool> outstanding;  // value unused

  // Lifetime counters (guarded by mu; mirrored to obs counters).
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t rejected_unavailable = 0;

  std::vector<std::thread> workers;

  // --- Admission (mu held) ----------------------------------------------

  // The single admission decision, shared by Submit and SubmitBatch.
  // `count` extra tickets must fit both budgets.
  Status Admissible(size_t count) {
    if (state != LifecycleState::kServing) {
      rejected_unavailable += count;
      return Status::Unavailable("session is not accepting queries (" +
                                 std::string(state == LifecycleState::kStopped
                                                 ? "stopped"
                                                 : "draining") +
                                 ")");
    }
    if (queue.size() + count > options.queue_capacity) {
      rejected_overloaded += count;
      BWTK_METRIC_COUNT_N(kCounterServeOverloaded, count);
      return Status::Overloaded(
          "admission queue full (" + std::to_string(queue.size()) + "/" +
          std::to_string(options.queue_capacity) + ")");
    }
    if (inflight + count > options.max_inflight) {
      rejected_overloaded += count;
      BWTK_METRIC_COUNT_N(kCounterServeOverloaded, count);
      return Status::Overloaded(
          "in-flight budget spent (" + std::to_string(inflight) + "/" +
          std::to_string(options.max_inflight) +
          "); collect results before submitting more");
    }
    return Status::OK();
  }

  // Validates one query up front so rejection happens at Submit, not in the
  // result. `engine` is the ticket's effective engine (configured or
  // override); availability and the sharded window are both checked against
  // it — a too-long pattern can never be served exactly, and the caller
  // should know synchronously.
  Status Validate(const BatchQuery& query, BatchEngine engine) const {
    if (query.k < 0) {
      return Status::InvalidArgument("negative mismatch budget");
    }
    if (engine == BatchEngine::kBidirectional &&
        options.batch.bidir_indexes.empty()) {
      return Status::InvalidArgument(
          "engine 'bidirectional' is not available on this session (no "
          "bidirectional indexes were configured)");
    }
    if (sharded != nullptr) {
      const size_t window = ShardedQueryWindow(query, engine);
      if (window > sharded->plan().overlap()) {
        return Status::InvalidArgument(
            "query needs a window of " + std::to_string(window) +
            " characters but the sharded index overlap is " +
            std::to_string(sharded->plan().overlap()) +
            "; rebuild the sharded index with a larger overlap");
      }
    }
    return Status::OK();
  }

  // mu held. Enqueues one validated, admissible query.
  Ticket Enqueue(BatchQuery query, BatchEngine engine, Callback callback) {
    const Ticket ticket = next_ticket++;
    queue.push_back(Pending{ticket, std::move(query), engine,
                            std::move(callback), obs::TraceClockNanos()});
    ++inflight;
    ++submitted;
    BWTK_METRIC_COUNT(kCounterServeSubmitted);
    if (!queue.back().callback) outstanding.emplace(ticket, true);
    return ticket;
  }

  // --- Execution ---------------------------------------------------------

  // Runs one claimed ticket outside the lock. The bank belongs to the
  // calling worker; a sharded ticket runs on every shard inside this one
  // call.
  QueryResult Execute(const Pending& pending, EngineBank* bank, int tid,
                      uint64_t picked_up_ns) {
    QueryResult result;
    result.ticket = pending.ticket;
    result.queue_ns = picked_up_ns - pending.admitted_ns;
    BWTK_METRIC_OBSERVE(kHistServeQueueNanos, result.queue_ns);
    const uint64_t search_begin_ns = obs::TraceClockNanos();
    // Shard s of ticket t traces as t * S + s.
    QueryAnswer answer = bank->Answer(
        pending.engine, pending.query, sink.get(),
        pending.ticket * bank->num_indexes(), static_cast<uint32_t>(tid));
    result.hits = std::move(answer.hits);
    result.stats = answer.stats;
    result.engine = answer.engine;
    result.seam_hits_deduped = answer.seam_hits_deduped;
    result.cache_served = answer.cache_served;
    result.search_ns = obs::TraceClockNanos() - search_begin_ns;
    return result;
  }

  void WorkerLoop(int tid) {
    EngineBank bank = sharded != nullptr ? EngineBank(sharded, options.batch)
                                         : EngineBank(index, options.batch);
    for (;;) {
      Pending pending;
      {
        BWTK_SCOPED_TIMER(kPhaseQueueWait);
        BWTK_SCOPED_HIST_TIMER(kHistQueueWaitNanos);
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return state == LifecycleState::kStopped ||
                 (!queue.empty() && !paused);
        });
        if (state == LifecycleState::kStopped) return;
        pending = std::move(queue.front());
        queue.pop_front();
        ++running;
      }
      QueryResult result =
          Execute(pending, &bank, tid, obs::TraceClockNanos());
      const Ticket ticket = result.ticket;
      const BatchEngine served_engine = result.engine;
      Callback callback = std::move(pending.callback);
      const bool via_callback = static_cast<bool>(callback);
      // Counters first, then the callback, then `running`: anyone who
      // observes the delivery (the callback, or a poll waiter) must already
      // see it counted, while Drain's idle predicate (running == 0) must
      // not pass until the callback has returned — a drained caller may
      // rely on every delivery having happened.
      {
        std::lock_guard<std::mutex> lock(mu);
        ++completed;
        BWTK_METRIC_COUNT(kCounterServeCompleted);
        // Executed (not drain-failed) tickets attribute to the engine that
        // served them (override and kAuto resolution already applied).
        if (BWTK_METRICS_ENABLED) obs::Count(ServedCounter(served_engine));
        if (via_callback) {
          --inflight;  // collected when the callback returns (below)
        } else {
          outstanding.erase(ticket);
          done.emplace(ticket, std::move(result));
        }
      }
      if (via_callback) {
        callback(std::move(result));
      } else {
        done_cv.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        --running;
        if (queue.empty() && running == 0) idle_cv.notify_all();
      }
    }
  }

  // --- Lifecycle (called from public methods) ----------------------------

  // Fails every still-queued callback ticket with `status`; poll tickets
  // get a stored failed result instead. mu held on entry and exit; the
  // callbacks themselves run unlocked.
  void FailQueueLocked(std::unique_lock<std::mutex>& lock,
                       const Status& status) {
    std::deque<Pending> orphaned;
    orphaned.swap(queue);
    for (Pending& pending : orphaned) {
      QueryResult result;
      result.ticket = pending.ticket;
      result.status = status;
      ++completed;
      BWTK_METRIC_COUNT(kCounterServeCompleted);
      if (pending.callback) {
        --inflight;
        lock.unlock();
        pending.callback(std::move(result));
        lock.lock();
      } else {
        outstanding.erase(pending.ticket);
        done.emplace(pending.ticket, std::move(result));
      }
    }
    done_cv.notify_all();
  }

  void ExportTrace() {
    if (sink != nullptr && !options.batch.trace_out.empty()) {
      const Status status = obs::WriteTraceFile(*sink, options.batch.trace_out);
      if (!status.ok()) {
        BWTK_LOG(Warning) << "trace export failed: " << status.message();
      }
    }
  }

  // Finishes construction: all state the workers read must be final before
  // the threads spawn (both public constructors funnel through here).
  void Start(const SessionOptions& opts) {
    options = opts;
    options.batch = WithSharedResultCache(opts.batch);
    num_threads = ResolveThreadCount(opts.num_threads);
    if (BWTK_METRICS_ENABLED && opts.batch.trace_sample_rate > 0.0) {
      obs::TraceSinkOptions sink_options;
      sink_options.sample_rate = opts.batch.trace_sample_rate;
      sink_options.slow_trace_count = opts.batch.slow_trace_count;
      sink = std::make_unique<obs::TraceSink>(sink_options);
    }
    workers.reserve(num_threads);
    for (int tid = 0; tid < num_threads; ++tid) {
      workers.emplace_back([this, tid] { WorkerLoop(tid); });
    }
  }
};

Session::Session(const FmIndex* index, const SessionOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BWTK_CHECK(index != nullptr);
  impl_->index = index;
  impl_->Start(options);
}

Session::Session(const ShardedIndex* index, const SessionOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BWTK_CHECK(index != nullptr);
  impl_->sharded = index;
  impl_->Start(options);
}

Session::~Session() { Shutdown(); }

Result<Ticket> Session::Submit(BatchQuery query) {
  return Submit(std::move(query), std::nullopt, Callback{});
}

Result<Ticket> Session::Submit(BatchQuery query, Callback callback) {
  return Submit(std::move(query), std::nullopt, std::move(callback));
}

Result<Ticket> Session::Submit(BatchQuery query,
                               std::optional<BatchEngine> engine_override,
                               Callback callback) {
  const BatchEngine engine =
      engine_override.value_or(impl_->options.batch.engine);
  BWTK_RETURN_IF_ERROR(impl_->Validate(query, engine));
  Ticket ticket = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    BWTK_RETURN_IF_ERROR(impl_->Admissible(1));
    ticket = impl_->Enqueue(std::move(query), engine, std::move(callback));
  }
  impl_->work_cv.notify_one();
  return ticket;
}

Result<Ticket> Session::Submit(std::string_view pattern, int32_t k) {
  BWTK_ASSIGN_OR_RETURN(std::vector<DnaCode> codes,
                        DecodeBatchPattern(impl_->options.batch.engine,
                                           pattern));
  return Submit(BatchQuery{std::move(codes), k});
}

Result<std::vector<Ticket>> Session::SubmitBatch(
    std::vector<BatchQuery> queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status status =
        impl_->Validate(queries[i], impl_->options.batch.engine);
    if (!status.ok()) {
      return Status::InvalidArgument("batch query " + std::to_string(i) +
                                     ": " + status.message());
    }
  }
  std::vector<Ticket> tickets;
  tickets.reserve(queries.size());
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    BWTK_RETURN_IF_ERROR(impl_->Admissible(queries.size()));
    for (BatchQuery& query : queries) {
      tickets.push_back(impl_->Enqueue(std::move(query),
                                       impl_->options.batch.engine,
                                       Callback{}));
    }
  }
  impl_->work_cv.notify_all();
  return tickets;
}

std::optional<QueryResult> Session::Poll(Ticket ticket) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->done.find(ticket);
  if (it == impl_->done.end()) return std::nullopt;
  QueryResult result = std::move(it->second);
  impl_->done.erase(it);
  --impl_->inflight;
  return result;
}

Result<QueryResult> Session::Wait(Ticket ticket) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [&] {
    return impl_->done.contains(ticket) || !impl_->outstanding.contains(ticket);
  });
  const auto it = impl_->done.find(ticket);
  if (it == impl_->done.end()) {
    return Status::InvalidArgument("ticket " + std::to_string(ticket) +
                                   " is not outstanding");
  }
  QueryResult result = std::move(it->second);
  impl_->done.erase(it);
  --impl_->inflight;
  return result;
}

Result<QueryResult> Session::WaitFor(Ticket ticket,
                                     std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const bool ready = impl_->done_cv.wait_for(lock, timeout, [&] {
    return impl_->done.contains(ticket) || !impl_->outstanding.contains(ticket);
  });
  if (!ready) {
    return Status::TimedOut("ticket " + std::to_string(ticket) +
                            " did not complete in time");
  }
  const auto it = impl_->done.find(ticket);
  if (it == impl_->done.end()) {
    return Status::InvalidArgument("ticket " + std::to_string(ticket) +
                                   " is not outstanding");
  }
  QueryResult result = std::move(it->second);
  impl_->done.erase(it);
  --impl_->inflight;
  return result;
}

void Session::Pause() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->paused = true;
}

void Session::Resume() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->paused = false;
  }
  impl_->work_cv.notify_all();
}

void Session::Drain() {
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (impl_->state == LifecycleState::kServing) {
      impl_->state = LifecycleState::kDraining;
      impl_->paused = false;
    }
  }
  impl_->work_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    // kStopped also releases the wait: a concurrent Shutdown supersedes the
    // drain (it fails whatever was still queued).
    impl_->idle_cv.wait(lock, [&] {
      return impl_->state == LifecycleState::kStopped ||
             (impl_->queue.empty() && impl_->running == 0);
    });
    if (impl_->state == LifecycleState::kDraining) {
      impl_->state = LifecycleState::kDrained;
    }
  }
  impl_->ExportTrace();
}

void Session::Shutdown() {
  Drain();
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    if (impl_->state == LifecycleState::kStopped) return;
    impl_->state = LifecycleState::kStopped;
    // Drain emptied the queue unless Shutdown raced a Drain already past
    // the state check; fail anything left so callbacks still fire once.
    impl_->FailQueueLocked(
        lock, Status::Unavailable("session shut down before execution"));
  }
  impl_->work_cv.notify_all();
  impl_->idle_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();
}

SessionStats Session::Stats() const {
  SessionStats stats;
  // The registry snapshot takes its own lock; grab it outside mu to keep
  // the lock ordering trivial (never both held at once).
  if (BWTK_METRICS_ENABLED) {
    const obs::MetricsBlock block = obs::MetricsRegistry::Instance().Snapshot();
    stats.result_cache_hits = block.counters[obs::kCounterResultCacheHits];
    stats.result_cache_misses = block.counters[obs::kCounterResultCacheMisses];
    stats.shard_exact_shortcuts =
        block.counters[obs::kCounterShardExactShortcuts];
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  stats.queue_depth = impl_->queue.size();
  stats.running = impl_->running;
  stats.inflight = impl_->inflight;
  stats.submitted = impl_->submitted;
  stats.completed = impl_->completed;
  stats.rejected_overloaded = impl_->rejected_overloaded;
  stats.rejected_unavailable = impl_->rejected_unavailable;
  stats.accepting = impl_->state == LifecycleState::kServing;
  return stats;
}

bool Session::accepting() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->state == LifecycleState::kServing;
}

int Session::num_threads() const { return impl_->num_threads; }

size_t Session::num_indexes() const {
  return impl_->sharded != nullptr ? impl_->sharded->num_shards() : 1;
}

BatchEngine Session::engine() const { return impl_->options.batch.engine; }

std::string_view Session::engine_name() const {
  return BatchEngineName(impl_->options.batch.engine);
}

const obs::TraceSink* Session::trace_sink() const { return impl_->sink.get(); }

}  // namespace bwtk::serve
