// JSON for SearchStats and MetricsBlock: the bridge between the in-memory
// instrumentation (search/match.h counters, obs/metrics.h registry) and
// the machine-readable documents built from it — the bench reports
// (docs/OBSERVABILITY.md, "Bench report schema"), /varz.json and the trace
// export.

#ifndef BWTK_OBS_REPORT_H_
#define BWTK_OBS_REPORT_H_

#include "obs/json.h"
#include "obs/metrics.h"
#include "search/match.h"

namespace bwtk::obs {

/// Appends `stats` as a flat JSON object value, one member per counter,
/// keyed by the field names of SearchStats ("stree_nodes", ...).
void AppendSearchStats(const SearchStats& stats, JsonWriter* writer);

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

}  // namespace bwtk::obs

#endif  // BWTK_OBS_REPORT_H_
