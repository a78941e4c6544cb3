// Trace serialization: Chrome trace-event JSON (loadable in Perfetto and
// chrome://tracing) and compact per-query summary records, built on the
// dependency-free JsonWriter of obs/json.h.
//
// The exported document is the Chrome "JSON object format": a top-level
// object whose "traceEvents" array holds complete ("ph": "X") slices —
// one per query plus one per recorded span, on the worker's timeline row —
// and whose extra keys carry bwtk-specific payloads viewers ignore:
//
//   {
//     "displayTimeUnit": "ns",
//     "otherData": { "producer": "bwtk", "schema": "bwtk_trace_v1" },
//     "traceEvents": [ ...metadata + slices... ],
//     "bwtk": {
//       "sample_rate": R, "traces_offered": N, "traces_dropped": N,
//       "summaries":    [ Summary... ],   // every retained sampled trace
//       "slow_queries": [ Summary... ]    // the N worst, slowest first
//     }
//   }
//
// A Summary is the compact per-query record: identity (trace id, engine,
// thread, k, pattern length), outcome (wall ns, matches, prefix-table
// hits), the query's SearchStats, per-span aggregate times, and the
// nodes-expanded-per-depth profile. The numeric core of a summary is also
// available as a flat {key: uint} object (TraceTotalsToJson) that
// round-trips through obs/json.h's ParseJson — the hook the tests use and
// the contract scripts can rely on.

#ifndef BWTK_OBS_TRACE_EXPORT_H_
#define BWTK_OBS_TRACE_EXPORT_H_

#include <string>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/status.h"

namespace bwtk::obs {

/// Appends the Chrome trace-event slices of one trace (the query slice and
/// one slice per span) as array elements; the writer must be inside an open
/// array. Timestamps are microseconds (the Chrome convention), durations
/// keep nanosecond precision as fractional microseconds.
void AppendChromeEvents(const Trace& trace, JsonWriter* writer);

/// Appends one per-query summary record as an object value.
void AppendTraceSummary(const Trace& trace, JsonWriter* writer);

/// The numeric core of a summary as a flat {key: uint64} object value:
/// trace_id, k, pattern_length, wall_ns, matches, prefix_table_hits,
/// nodes_expanded, max_depth, spans, dropped_spans. Parseable with
/// ParseJson.
void AppendTraceTotals(const Trace& trace, JsonWriter* writer);

/// AppendTraceTotals as a standalone document.
std::string TraceTotalsToJson(const Trace& trace);

/// The whole sink (sampled + aux traces as timeline events, summaries and
/// the slow-query log in the "bwtk" section) as one Chrome-trace document.
std::string TraceFileJson(const TraceSink& sink);

/// Writes TraceFileJson(sink) to `path`.
Status WriteTraceFile(const TraceSink& sink, const std::string& path);

}  // namespace bwtk::obs

#endif  // BWTK_OBS_TRACE_EXPORT_H_
