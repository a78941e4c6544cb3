#include "obs/report.h"

#include <string_view>

namespace bwtk::obs {

namespace {

// Name/member table for SearchStats.
struct StatsField {
  std::string_view name;
  uint64_t SearchStats::* member;
};

constexpr StatsField kStatsFields[] = {
    {"stree_nodes", &SearchStats::stree_nodes},
    {"extend_calls", &SearchStats::extend_calls},
    {"completed_paths", &SearchStats::completed_paths},
    {"tau_pruned", &SearchStats::tau_pruned},
    {"budget_pruned", &SearchStats::budget_pruned},
    {"mtree_nodes", &SearchStats::mtree_nodes},
    {"mtree_leaves", &SearchStats::mtree_leaves},
    {"reused_nodes", &SearchStats::reused_nodes},
    {"derived_runs", &SearchStats::derived_runs},
};

}  // namespace

void AppendSearchStats(const SearchStats& stats, JsonWriter* writer) {
  writer->BeginObject();
  for (const StatsField& field : kStatsFields) {
    writer->Key(field.name).Value(stats.*field.member);
  }
  writer->EndObject();
}

void AppendCounters(const MetricsBlock& block, JsonWriter* writer) {
  writer->BeginObject();
  for (uint32_t i = 0; i < kNumCounters; ++i) {
    writer->Key(CounterName(static_cast<CounterId>(i)))
        .Value(block.counters[i]);
  }
  writer->EndObject();
}

void AppendPhases(const MetricsBlock& block, JsonWriter* writer) {
  writer->BeginObject();
  for (uint32_t i = 0; i < kNumPhases; ++i) {
    writer->Key(PhaseName(static_cast<PhaseId>(i)))
        .BeginObject()
        .Key("nanos")
        .Value(block.phase_nanos[i])
        .Key("calls")
        .Value(block.phase_calls[i])
        .EndObject();
  }
  writer->EndObject();
}

void AppendHistograms(const MetricsBlock& block, JsonWriter* writer) {
  writer->BeginObject();
  for (uint32_t i = 0; i < kNumHists; ++i) {
    const Histogram& hist = block.hists[i];
    writer->Key(HistName(static_cast<HistId>(i)))
        .BeginObject()
        .Key("count")
        .Value(hist.count)
        .Key("sum")
        .Value(hist.sum)
        .Key("buckets")
        .BeginArray();
    for (size_t b = 0; b < kHistBuckets; ++b) {
      if (hist.buckets[b] == 0) continue;
      writer->BeginArray()
          .Value(static_cast<uint64_t>(b))
          .Value(hist.buckets[b])
          .EndArray();
    }
    writer->EndArray().EndObject();
  }
  writer->EndObject();
}

}  // namespace bwtk::obs
