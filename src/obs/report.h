// Structured reports over SearchStats and MetricsBlock: the bridge between
// the in-memory instrumentation (search/match.h counters, obs/metrics.h
// registry) and the machine-readable JSON consumed by trend tracking and CI
// (see docs/OBSERVABILITY.md for the documented schema).

#ifndef BWTK_OBS_REPORT_H_
#define BWTK_OBS_REPORT_H_

#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/metrics.h"
#include "search/match.h"
#include "util/status.h"

namespace bwtk::obs {

// --- SearchStats <-> JSON ------------------------------------------------

/// Appends `stats` as a flat JSON object value, one member per counter,
/// keyed by the field names of SearchStats ("stree_nodes", ...).
void AppendSearchStats(const SearchStats& stats, JsonWriter* writer);

/// `stats` as a standalone flat JSON object.
std::string SearchStatsToJson(const SearchStats& stats);

/// Inverse of SearchStatsToJson, read through ParseJson. Anything but an
/// object whose values are all unsigned integers fails, as do unknown keys
/// (they signal a schema drift the caller should know about); missing keys
/// default to zero so old reports parse under a grown struct.
Result<SearchStats> SearchStatsFromJson(std::string_view json);

// --- MetricsBlock -> JSON ------------------------------------------------

/// Appends `block`'s counters as an object value: {"rank_calls": N, ...}.
void AppendCounters(const MetricsBlock& block, JsonWriter* writer);

/// Appends `block`'s phase timers as an object value:
/// {"tree_traversal": {"nanos": N, "calls": C}, ...}. Every phase of the
/// catalog is present, including zero ones — consumers can rely on the keys.
void AppendPhases(const MetricsBlock& block, JsonWriter* writer);

/// Appends `block`'s histograms as an object value:
/// {"query_nanos": {"count": C, "sum": S, "buckets": [[index, count], ...]},
/// ...}. Only non-empty buckets appear; bucket `index` covers values in
/// [BucketLowerBound(index), BucketUpperBound(index)].
void AppendHistograms(const MetricsBlock& block, JsonWriter* writer);

// --- Per-run report ------------------------------------------------------

/// One measured run: the engine's own counters plus the registry delta
/// captured around it. This is the structured per-phase extension of
/// SearchStats — what a bench cell or a production probe reports.
struct SearchReport {
  SearchStats stats;
  MetricsBlock metrics;
  /// Active rank kernel of the index queried ("scalar"/"word64"/"avx2");
  /// empty when the producer did not record it. Makes reports
  /// self-describing — two runs with different kernels are not comparable
  /// rank-for-rank.
  std::string rank_kernel;
  /// q of the index's prefix interval table (0 = none attached).
  uint32_t prefix_table_q = 0;

  /// Appends {"stats": {...}, "counters": {...}, "phases": {...},
  /// "histograms": {...}, "rank_kernel": "...", "prefix_table_q": N} as an
  /// object value.
  void AppendJson(JsonWriter* writer) const;

  /// The report as a standalone JSON document.
  std::string ToJson() const;
};

}  // namespace bwtk::obs

#endif  // BWTK_OBS_REPORT_H_
