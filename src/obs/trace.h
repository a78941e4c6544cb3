// Per-query span tracing: the diagnostic layer above the aggregate metrics
// registry (obs/metrics.h).
//
// The registry answers "where did the *batch* spend its time"; a Trace
// answers "why did *this query* blow its latency budget": which phase of
// Algorithm A (tau build, R_ij construction, merge derivation, tree
// traversal, locate) ate the time, and what the search tree looked like —
// nodes expanded per pattern depth, where branching exploded, how far the
// prefix table carried the descent. That per-query tree shape is the
// quantity the search-scheme literature (Kianfar et al., Kucherov et al.)
// shows explains tail latency at larger k; the aggregate histograms throw
// it away.
//
// Design, mirroring obs/metrics.h:
//   * Hooks are macros (BWTK_TRACE_*) that compile to `((void)0)` under
//     -DBWTK_DISABLE_METRICS; the classes below are defined unconditionally
//     and identically in every TU, so mixed configurations are ODR-safe.
//   * A query is traced only while a Trace is *activated* on the calling
//     thread (ScopedQueryTrace / ScopedTraceActivation). Engines hoist the
//     active pointer into a local once per query with BWTK_TRACE_ACTIVE()
//     and every per-node hook is then a single pointer null-check — no TLS
//     access in the enumeration loop. With no trace active the hooks cost
//     one predictable branch.
//   * Collection is sampled: TraceSink::ShouldSample hashes the trace id,
//     so the sampled subset is deterministic for a fixed query order no
//     matter which worker thread runs the query.
//   * The sink doubles as the slow-query log: it retains the N worst
//     sampled traces by wall time (a min-heap) alongside a capped list of
//     all sampled traces. Exporters (obs/trace_export.h) turn both into
//     Chrome trace-event JSON and compact per-query summary records.
//
// See docs/OBSERVABILITY.md, "Tracing & the slow-query log", for the span
// catalog and sampling semantics.

#ifndef BWTK_OBS_TRACE_H_
#define BWTK_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "search/match.h"

namespace bwtk::obs {

/// Monotonic clock reading in nanoseconds (steady_clock since its epoch).
/// All trace timestamps share this clock, so spans from different threads
/// line up on one timeline in the Chrome trace export.
inline uint64_t TraceClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed region inside a trace. `name` must be a string literal (or
/// otherwise outlive every copy of the trace): spans are recorded on the
/// query hot path and never copy the name.
struct TraceSpan {
  std::string_view name;
  uint64_t start_ns = 0;  ///< TraceClockNanos() at open.
  uint64_t dur_ns = 0;    ///< 0 while the span is still open.
  uint32_t depth = 0;     ///< nesting level at open (0 = top of the query).

  bool operator==(const TraceSpan&) const = default;
};

/// Returned by Trace::OpenSpan when the span cap is hit; CloseSpan ignores
/// it. Keeps pathological queries (thousands of merge re-entries) from
/// growing a trace without bound.
inline constexpr size_t kTraceSpanDropped = static_cast<size_t>(-1);

/// Per-trace span cap; spans beyond it are counted in `dropped_spans`.
inline constexpr size_t kTraceMaxSpans = 4096;

/// Everything recorded about one traced query. Plain data; copyable (the
/// sink copies a trace into the slow-query heap when it also keeps it in
/// the sampled list).
struct Trace {
  /// Caller-assigned stable id. BatchSearcher uses
  /// (batch sequence << 32) | query index, so ids are reproducible across
  /// runs for the same batch sequence regardless of thread assignment.
  uint64_t trace_id = 0;
  /// Engine label ("algorithm_a", "stree", "kerror", "batch_worker", ...).
  std::string engine;
  int32_t k = 0;
  uint32_t thread_index = 0;
  /// Which index of a sharded/multi-index group ran the query (0 for the
  /// monolithic engines). Set by EngineBank::Answer so sharded traces
  /// carry their shard as a first-class dimension.
  uint32_t shard_id = 0;
  uint64_t pattern_length = 0;
  uint64_t begin_ns = 0;  ///< TraceClockNanos() when the query started.
  uint64_t wall_ns = 0;   ///< total query wall time.
  uint64_t matches = 0;
  uint64_t prefix_table_hits = 0;
  uint64_t dropped_spans = 0;
  /// The engine's flat counters for this query (filled by the activator,
  /// e.g. ScopedQueryTrace::Finish).
  SearchStats stats;
  std::vector<TraceSpan> spans;
  /// nodes_per_depth[d] = S-tree nodes materialized at pattern depth d (the
  /// per-depth expansion profile; sum is close to stats.stree_nodes, minus
  /// nodes whose materialization was derived rather than expanded).
  std::vector<uint64_t> nodes_per_depth;

  /// Opens a span at the current nesting level; returns its index for
  /// CloseSpan (or kTraceSpanDropped past the cap).
  size_t OpenSpan(std::string_view name) {
    if (spans.size() >= kTraceMaxSpans) {
      ++dropped_spans;
      return kTraceSpanDropped;
    }
    spans.push_back({name, TraceClockNanos(), 0, open_depth_});
    ++open_depth_;
    return spans.size() - 1;
  }

  /// Records a span whose time was measured elsewhere, at the current
  /// nesting level: a region that is not one interval of the clock, such
  /// as an interleaved scheme walk's own turns (it starts at the first turn
  /// and lasts their sum).
  void AddSpan(std::string_view name, uint64_t start_ns, uint64_t dur_ns) {
    if (spans.size() >= kTraceMaxSpans) {
      ++dropped_spans;
      return;
    }
    spans.push_back({name, start_ns, dur_ns, open_depth_});
  }

  void CloseSpan(size_t index) {
    if (index == kTraceSpanDropped) {
      if (open_depth_ > 0) --open_depth_;  // the open was counted dropped
      return;
    }
    spans[index].dur_ns = TraceClockNanos() - spans[index].start_ns;
    if (open_depth_ > 0) --open_depth_;
  }

  /// Records one node expansion at pattern depth `depth`.
  void CountNode(size_t depth) {
    if (depth >= nodes_per_depth.size()) nodes_per_depth.resize(depth + 1, 0);
    ++nodes_per_depth[depth];
  }

  /// Sum of the per-depth profile.
  uint64_t NodesExpanded() const {
    uint64_t total = 0;
    for (const uint64_t n : nodes_per_depth) total += n;
    return total;
  }

  /// Deepest pattern depth with at least one expansion (0 when none).
  uint64_t MaxDepth() const {
    for (size_t d = nodes_per_depth.size(); d > 0; --d) {
      if (nodes_per_depth[d - 1] != 0) return d - 1;
    }
    return 0;
  }

 private:
  uint32_t open_depth_ = 0;
};

// --- Thread-local activation ---------------------------------------------

/// The trace activated on the calling thread, or nullptr. Engines call this
/// once per query (via BWTK_TRACE_ACTIVE()) and thread the pointer through
/// their hot loops; do not call it per node.
Trace* ActiveTrace();

/// Activates `trace` on this thread for the enclosing scope, restoring the
/// previous activation (usually none) on exit. Pass nullptr to deactivate.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ~ScopedTraceActivation();
  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  Trace* prev_;
};

// --- Sink ----------------------------------------------------------------

struct TraceSinkOptions {
  /// Probability in [0, 1] that a trace id is sampled. 0 samples nothing,
  /// 1 samples everything. The decision is a pure function of the id (a
  /// hash threshold), so re-running the same batch samples the same
  /// queries.
  double sample_rate = 0.0;
  /// The slow-query log: how many of the worst sampled traces (by wall
  /// time) to retain. 0 disables the log.
  size_t slow_trace_count = 8;
  /// Cap on the retained sampled-trace list; offers beyond it are counted
  /// in traces_dropped() but still compete for the slow-query log.
  size_t max_sampled_traces = 4096;
  /// XORed into the sampling hash; change to draw a different sample.
  uint64_t sample_seed = 0;
};

/// Thread-safe trace collector + slow-query log. Offer() is called by many
/// worker threads; the accessors copy under the same mutex and may be
/// called from any thread between batches.
class TraceSink {
 public:
  explicit TraceSink(const TraceSinkOptions& options = {});

  const TraceSinkOptions& options() const { return options_; }

  /// Deterministic per-id sampling decision; lock-free and const.
  bool ShouldSample(uint64_t trace_id) const;

  /// Hands a finished query trace to the sink. Thread-safe.
  void Offer(Trace&& trace);

  /// Auxiliary (non-query) traces — e.g. BatchSearcher's per-worker
  /// queue-wait/search lanes. Exported as timeline events but excluded from
  /// the sampled list and the slow-query log (a worker lane spans a whole
  /// batch and would otherwise always be the "slowest query").
  void OfferAux(Trace&& trace);

  /// All retained sampled traces, ordered by trace id.
  std::vector<Trace> SampledTraces() const;

  /// The slow-query log: up to slow_trace_count traces, slowest first.
  std::vector<Trace> SlowTraces() const;

  /// Retained auxiliary traces, ordered by trace id.
  std::vector<Trace> AuxTraces() const;

  uint64_t traces_offered() const;
  uint64_t traces_dropped() const;

  /// Empties every list and counter; options are kept.
  void Clear();

 private:
  const TraceSinkOptions options_;
  mutable std::mutex mu_;
  std::vector<Trace> sampled_;
  std::vector<Trace> slow_;  // min-heap by wall_ns (front = least slow)
  std::vector<Trace> aux_;
  uint64_t offered_ = 0;
  uint64_t dropped_ = 0;
};

// --- Query-scope helpers -------------------------------------------------

/// When `sink` (may be null) samples `trace_id`, resets `*trace` to that
/// query's trace, stamps its identity and begin_ns, and returns true;
/// otherwise leaves `*trace` alone and returns false. It activates nothing:
/// this is how a query that shares its thread with others gets a trace of
/// its own (EngineBank hands it to the query's scheme walk), since the
/// thread-local activation would give one query's nodes and spans to
/// another. The caller sets wall_ns, matches and stats and offers it.
bool BeginQueryTrace(const TraceSink* sink, uint64_t trace_id,
                     std::string_view engine, int32_t k,
                     size_t pattern_length, uint32_t thread_index,
                     uint32_t shard_id, Trace* trace);

/// Traces one query end to end: decides sampling, activates the trace for
/// the enclosing scope, stamps wall time, and offers the result to the
/// sink. With a null sink (or an unsampled id) every member is a no-op, so
/// callers can construct one unconditionally per query:
///
///   obs::ScopedQueryTrace qt(sink, id, "algorithm_a", k, pattern.size());
///   auto hits = engine.Search(pattern, k, &stats, &scratch);
///   qt.Finish(hits.size(), stats);
///
/// Finish() stamps the wall clock, so call it immediately after the search;
/// the destructor deactivates and offers (and stamps wall itself if Finish
/// was never reached, e.g. on an exception path).
class ScopedQueryTrace {
 public:
  ScopedQueryTrace(TraceSink* sink, uint64_t trace_id, std::string_view engine,
                   int32_t k, size_t pattern_length, uint32_t thread_index = 0,
                   uint32_t shard_id = 0);
  ~ScopedQueryTrace();
  ScopedQueryTrace(const ScopedQueryTrace&) = delete;
  ScopedQueryTrace& operator=(const ScopedQueryTrace&) = delete;

  bool active() const { return active_; }

  /// Records the query outcome and stops the wall clock.
  void Finish(uint64_t matches, const SearchStats& stats);

 private:
  TraceSink* sink_ = nullptr;
  Trace trace_;
  Trace* prev_ = nullptr;
  bool active_ = false;
  bool finished_ = false;
};

// --- Hot-path helpers behind the macros ----------------------------------

/// RAII span on an explicit (possibly null) trace.
class TraceSpanScope {
 public:
  TraceSpanScope(Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) index_ = trace_->OpenSpan(name);
  }
  ~TraceSpanScope() {
    if (trace_ != nullptr) trace_->CloseSpan(index_);
  }
  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

 private:
  Trace* trace_;
  size_t index_ = kTraceSpanDropped;
};

inline void TraceCountNode(Trace* trace, size_t depth) {
  if (trace != nullptr) trace->CountNode(depth);
}

inline void TraceAddPrefixHits(Trace* trace, uint64_t hits) {
  if (trace != nullptr) trace->prefix_table_hits += hits;
}

}  // namespace bwtk::obs

// --- Instrumentation macros ----------------------------------------------
// Engines use only these (never the helpers directly) so that
// -DBWTK_DISABLE_METRICS compiles tracing out along with the rest of the
// observability hooks. BWTK_METRICS_ENABLED and the CONCAT helpers come
// from obs/metrics.h.

#if BWTK_METRICS_ENABLED

/// The thread's active trace (or nullptr), for hoisting into a query-scoped
/// local. Disabled builds substitute a compile-time nullptr, so every hook
/// downstream of the local folds away.
#define BWTK_TRACE_ACTIVE() ::bwtk::obs::ActiveTrace()
/// Times the rest of the enclosing scope as span `name` of `trace`
/// (a `Trace*`, may be null). `name` must be a string literal.
#define BWTK_TRACE_SPAN(trace, name)                            \
  ::bwtk::obs::TraceSpanScope BWTK_OBS_CONCAT(bwtk_trace_span_, \
                                              __LINE__)((trace), (name))
/// Records one node expansion at pattern depth `depth`.
#define BWTK_TRACE_NODE(trace, depth) \
  ::bwtk::obs::TraceCountNode((trace), (depth))
/// Adds `n` prefix-table hits to the trace.
#define BWTK_TRACE_PREFIX_HITS(trace, n) \
  ::bwtk::obs::TraceAddPrefixHits((trace), (n))

#else  // BWTK_METRICS_ENABLED

#define BWTK_TRACE_ACTIVE() nullptr
#define BWTK_TRACE_SPAN(trace, name) ((void)0)
#define BWTK_TRACE_NODE(trace, depth) ((void)0)
#define BWTK_TRACE_PREFIX_HITS(trace, n) ((void)0)

#endif  // BWTK_METRICS_ENABLED

#endif  // BWTK_OBS_TRACE_H_
