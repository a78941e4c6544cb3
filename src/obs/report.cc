#include "obs/report.h"

#include <utility>
#include <vector>

namespace bwtk::obs {

namespace {

// Name/member table for SearchStats, shared by the serializer and the
// parser so the two cannot drift apart.
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

std::string SearchStatsToJson(const SearchStats& stats) {
  JsonWriter writer;
  AppendSearchStats(stats, &writer);
  return std::move(writer).TakeString();
}

Result<SearchStats> SearchStatsFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("SearchStats JSON is not an object");
  }
  SearchStats stats;
  for (const auto& [key, value] : parsed->members) {
    if (!value.is_uint) {  // set only for non-negative integral numbers
      return Status::InvalidArgument("SearchStats field \"" + key +
                                     "\" is not an unsigned integer");
    }
    bool known = false;
    for (const StatsField& field : kStatsFields) {
      if (field.name == key) {
        stats.*field.member = value.uint_value;
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown SearchStats field \"" + key +
                                     "\"");
    }
  }
  return stats;
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

void SearchReport::AppendJson(JsonWriter* writer) const {
  writer->BeginObject().Key("stats");
  AppendSearchStats(stats, writer);
  writer->Key("counters");
  AppendCounters(metrics, writer);
  writer->Key("phases");
  AppendPhases(metrics, writer);
  writer->Key("histograms");
  AppendHistograms(metrics, writer);
  writer->Key("rank_kernel").Value(rank_kernel);
  writer->Key("prefix_table_q").Value(prefix_table_q);
  writer->EndObject();
}

std::string SearchReport::ToJson() const {
  JsonWriter writer;
  AppendJson(&writer);
  return std::move(writer).TakeString();
}

}  // namespace bwtk::obs
