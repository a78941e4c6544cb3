// Always-on query service: a long-lived Session owning an index (monolithic
// or sharded) plus a persistent worker pool, serving a *stream* of queries
// instead of pre-assembled batches.
//
// Where BatchSearcher amortizes one synchronous rendezvous over a whole
// batch, a Session admits queries one at a time into a bounded queue and
// hands each to the first free worker; callers collect results by ticket
// (Poll/Wait/WaitFor) or by completion callback. Results are byte-identical
// to the direct engines: every ticket is one EngineBank::Answer call, the
// same per-query step the BatchSearcher workers run — one result cache key,
// one seam rule (ResolveShardedHits), one stats contract.
//
//   bwtk::serve::Session session(&index, {.num_threads = 4});
//   auto ticket = session.Submit({pattern, k});
//   if (!ticket.ok()) { /* kOverloaded: shed load, retry later */ }
//   bwtk::serve::QueryResult r = session.Wait(ticket.value()).value();
//   // r.hits == AlgorithmA(&index).Search(pattern, k)
//
// Admission control is explicit and non-blocking: Submit never waits. When
// the queue is full or the in-flight budget is spent it fails fast with
// StatusCode::kOverloaded so the caller (e.g. the TCP front-end in
// serve/server.h) can shed load instead of stacking latency. After Drain()
// or Shutdown() submission fails with kUnavailable.
//
// Lifecycle state machine (docs/SERVING.md has the full operator view):
//
//   kServing --Drain()--> kDraining --queue empties--> kDrained
//       \                                                 |
//        +---------------Shutdown()----------------------+--> kStopped
//
// - kServing:  admitting and executing. Pause()/Resume() toggle execution
//              without leaving this state (admission continues until the
//              queue fills; used for quiesce windows and overload tests).
// - kDraining: admission closed, workers finishing the backlog.
// - kDrained:  backlog empty; results remain collectable by ticket.
// - kStopped:  workers joined; only result collection still works.
//
// Thread safety: every public method is safe to call from any thread, any
// number of threads — Sessions are meant to be shared by concurrent client
// handlers. Callbacks run on worker threads and must not call back into
// blocking Session methods (Poll and Stats are fine; Wait would deadlock a
// worker).

#ifndef BWTK_SERVE_SESSION_H_
#define BWTK_SERVE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bwt/fm_index.h"
#include "obs/trace.h"
#include "search/batch_searcher.h"
#include "search/match.h"
#include "shard/sharded_index.h"
#include "util/status.h"

namespace bwtk::serve {

/// Opaque handle for one submitted query. Ticket ids are assigned densely
/// from 1 in admission order and double as the query's trace id, so a slow
/// query in the trace log is directly attributable to its submission.
using Ticket = uint64_t;

/// Completed query: everything the caller gets back for one ticket.
struct QueryResult {
  Ticket ticket = 0;
  /// OkStatus() for an executed search; an error when the query was
  /// rejected at execution time (currently only sharded window overflow —
  /// see SessionOptions::batch.engine and ShardedQueryWindow).
  Status status = Status::OK();
  /// Hits in text coordinates (global coordinates for a sharded Session),
  /// position-sorted; byte-identical to the serial engine and to a batch.
  std::vector<Occurrence> hits;
  /// This query's engine counters (docs/API.md, per-engine stats contract).
  SearchStats stats;
  /// The engine that actually served the ticket: the Session's configured
  /// engine, the per-ticket override if one was submitted, and in either
  /// case with kAuto resolved to its per-query pick. Meaningful only for
  /// executed tickets (drain-failed results keep the default).
  BatchEngine engine = BatchEngine::kAlgorithmA;
  /// Seam duplicates discarded by the ownership rule (sharded Sessions).
  uint64_t seam_hits_deduped = 0;
  /// True when the result came from the exact-duplicate result cache
  /// (SessionOptions::batch.result_cache) instead of a fresh execution.
  /// `hits`, `stats` and `seam_hits_deduped` are byte-identical either way —
  /// cached entries store the original execution's values.
  bool cache_served = false;
  /// Admission-to-pickup wait and engine execution time.
  uint64_t queue_ns = 0;
  uint64_t search_ns = 0;
};

/// Called on a worker thread when a callback-submitted ticket completes.
/// Invoked exactly once per ticket, including for failed queries and for
/// queries still queued at Shutdown (those complete with kUnavailable).
using Callback = std::function<void(QueryResult)>;

/// Session configuration, fixed at construction.
struct SessionOptions {
  /// Persistent worker threads; 0 means hardware concurrency.
  int num_threads = 0;

  /// Admission queue capacity: tickets admitted but not yet picked up by a
  /// worker. Submit fails with kOverloaded when the queue is full.
  size_t queue_capacity = 1024;

  /// In-flight budget: tickets admitted whose results have not yet been
  /// collected (polled, waited, or callback-returned). Submit fails with
  /// kOverloaded at the cap. This bounds the retained-results map for
  /// clients that submit faster than they poll; it is per Session — the
  /// TCP front-end enforces its per-connection cap on top (see
  /// ServerOptions::max_inflight_per_connection).
  size_t max_inflight = 4096;

  /// Engine selection and engine knobs, shared with BatchSearcher: engine,
  /// algorithm_a/stree options, and the tracing knobs (trace_sample_rate,
  /// slow_trace_count, trace_out — the trace file is rewritten on
  /// Drain/Shutdown rather than per batch). num_threads/fail_fast inside
  /// are ignored; SessionOptions wins.
  ///
  /// The result cache also lives here. `batch.result_cache` /
  /// `batch.result_cache_instance` front the whole ticket path: an exact
  /// duplicate (pattern, k) against the same index version is served from
  /// the cache without touching a worker engine (QueryResult::cache_served).
  /// The key is the one BatchSearcher uses, so a cache instance shared
  /// with a pool over the same index serves repeats across both.
  BatchOptions batch = {};
};

/// Point-in-time gauges and lifetime counters (see docs/OBSERVABILITY.md).
///
/// Wire note: this struct crosses the serve protocol as the STATS_RESULT
/// payload, which is count-prefixed (serve/wire.h). Append new fields at the
/// END only — the wire order is the declaration order below, with reserved
/// slot 8 (always 0) between rejected_unavailable and result_cache_hits and
/// `accepting` last; old clients zero-fill fields they don't know. The
/// evolution rule is documented in docs/SERVING.md.
struct SessionStats {
  size_t queue_depth = 0;     ///< admitted, waiting for a worker
  size_t running = 0;         ///< currently executing on a worker
  size_t inflight = 0;        ///< admitted, result not yet collected
  uint64_t submitted = 0;     ///< tickets ever admitted
  uint64_t completed = 0;     ///< tickets whose search finished (any status)
  uint64_t rejected_overloaded = 0;   ///< Submit failures: budget/queue full
  uint64_t rejected_unavailable = 0;  ///< Submit failures: draining/stopped
  // Process-wide registry totals, not per-Session (the result cache may be
  // shared across Sessions): these mirror the obs counters so remote
  // serve_tool clients can see them without scraping HTTP.
  uint64_t result_cache_hits = 0;     ///< exact-duplicate cache hits (L3)
  uint64_t result_cache_misses = 0;   ///< result-cache probes that missed
  uint64_t shard_exact_shortcuts = 0; ///< sharded k=0 point lookups
  /// True while the Session admits queries (kServing). The /readyz probe and
  /// remote clients use this to see a drain in progress.
  bool accepting = false;
};

/// The serving engine. See the file comment for the lifecycle contract.
class Session {
 public:
  /// Monolithic Session: queries run against `index`, which must outlive
  /// the Session. Workers start here and idle until the first Submit.
  explicit Session(const FmIndex* index, const SessionOptions& options = {});

  /// Sharded Session: a ticket runs on every shard of `index` *within one
  /// worker* (shard parallelism comes from concurrent tickets) and seams
  /// resolve by the owner-shard rule, so results equal
  /// ShardedBatchSearcher's — and therefore the monolithic engine's.
  explicit Session(const ShardedIndex* index,
                   const SessionOptions& options = {});

  /// Shutdown() + worker join. Queued callback tickets fire with
  /// kUnavailable before the destructor returns.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Admits one query. Fails fast (never blocks) with kOverloaded when the
  /// queue or in-flight budget is full, kUnavailable after Drain/Shutdown,
  /// kInvalidArgument for a negative k or (sharded) a window longer than
  /// the index overlap. On success the ticket's result must eventually be
  /// collected via Poll/Wait/WaitFor — exactly once.
  Result<Ticket> Submit(BatchQuery query);

  /// Callback form: `callback` fires exactly once on a worker thread when
  /// the query completes; the ticket is auto-collected when the callback
  /// returns (do not Poll/Wait it).
  Result<Ticket> Submit(BatchQuery query, Callback callback);

  /// Per-ticket engine override (the serve wire's ENGINE_OVERRIDE flag
  /// lands here): when `engine_override` is set, this ticket runs under
  /// that engine instead of the Session's configured one — same indexes,
  /// same seam rule, same result-cache (keyed by the resolved engine).
  /// Fails with kInvalidArgument when the override is not executable on
  /// this Session (kBidirectional without bidir_indexes) or, sharded, when
  /// the override's window exceeds the overlap. nullopt behaves exactly
  /// like the plain Submit.
  Result<Ticket> Submit(BatchQuery query,
                        std::optional<BatchEngine> engine_override,
                        Callback callback);

  /// ASCII convenience: decodes with DecodeBatchPattern for the configured
  /// engine (wildcard syntax under kWildcard), then Submit.
  Result<Ticket> Submit(std::string_view pattern, int32_t k);

  /// All-or-nothing admission of a stream burst: either every query is
  /// admitted (tickets in input order) or none is and the first obstacle's
  /// error is returned. Atomic against concurrent submitters.
  Result<std::vector<Ticket>> SubmitBatch(std::vector<BatchQuery> queries);

  /// Non-blocking collect: the result if `ticket` has completed (consuming
  /// it — a second Poll returns nullopt), nullopt while it is still queued
  /// or running. Polling an unknown or already-collected ticket returns
  /// nullopt. Callback tickets are never pollable.
  std::optional<QueryResult> Poll(Ticket ticket);

  /// Blocking collect. Returns kInvalidArgument for a ticket that is not
  /// outstanding (unknown, already collected, or callback-submitted) —
  /// never blocks on a ticket that cannot complete.
  Result<QueryResult> Wait(Ticket ticket);

  /// Wait with a deadline: kTimedOut if `timeout` elapses first. The ticket
  /// stays outstanding and may be waited/polled again.
  Result<QueryResult> WaitFor(Ticket ticket, std::chrono::nanoseconds timeout);

  /// Stops workers from picking up new tickets (admission continues until
  /// the queue fills). Deterministic setup hook for overload handling and
  /// operator quiesce windows; idempotent.
  void Pause();

  /// Undoes Pause; wakes the workers. Idempotent.
  void Resume();

  /// Closes admission and blocks until every admitted ticket has executed
  /// (results remain collectable afterwards; callback tickets will have
  /// fired). Idempotent; safe to call concurrently with Submit — queries
  /// lose the race cleanly with kUnavailable. Implies Resume.
  void Drain();

  /// Drain + wake and join the workers. After Shutdown only result
  /// collection (Poll/Wait of already-executed tickets) and Stats work.
  /// Called by the destructor if the caller did not.
  void Shutdown();

  /// Gauges snapshot; safe at any time, including from callbacks.
  SessionStats Stats() const;

  /// True while the Session admits queries (lifecycle state kServing) —
  /// false from the moment Drain/Shutdown begins. This is the readiness
  /// signal behind the HTTP /readyz probe (serve/http_exposition.h).
  bool accepting() const;

  /// Number of persistent workers (after resolving num_threads = 0).
  int num_threads() const;

  /// 1 for a monolithic Session, the shard count for a sharded one.
  size_t num_indexes() const;

  /// The configured engine and its stable BatchEngineName label.
  BatchEngine engine() const;
  std::string_view engine_name() const;

  /// Trace collector (sampling + slow-query log), or nullptr when tracing
  /// is off. Trace ids are ticket ids. Unlike BatchSearcher, reading it
  /// while queries are in flight is safe — the sink locks internally — but
  /// snapshots taken mid-flight are of a moving target.
  const obs::TraceSink* trace_sink() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bwtk::serve

#endif  // BWTK_SERVE_SESSION_H_
