#include "obs/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace bwtk::obs {

namespace {

constexpr std::string_view kCounterNames[kNumCounters] = {
    "rank_calls",      "rankall_calls",  "extend_calls", "extendall_calls",
    "lf_steps",        "locate_calls",   "rij_builds",   "rij_cache_hits",
    "merge_calls",     "chain_builds",   "batch_batches", "batch_queries",
    "prefix_table_hits", "prefix_table_skipped_steps",
    "shard_queries",   "seam_hits_deduped",
    "serve_submitted", "serve_completed", "serve_overloaded",
    "result_cache_hits", "result_cache_misses", "result_cache_evictions",
    "shard_exact_shortcuts",
    "serve_stats_trailers", "serve_conn_overloaded",
    "serve_served_algorithm_a", "serve_served_stree", "serve_served_kerror",
    "serve_served_wildcard",
    "serve_served_bidirectional",
    "bidir_searches", "bidir_left_extends", "bidir_right_extends",
    "bidir_verified_rows",
};

constexpr std::string_view kPhaseNames[kNumPhases] = {
    "index_build", "tau_build", "ri_build",   "merge",
    "tree_traversal", "locate", "queue_wait", "worker_search",
    "prefix_table_build", "bidir_traversal",
};

constexpr std::string_view kHistNames[kNumHists] = {
    "query_nanos",
    "hits_per_query",
    "chain_length",
    "queue_wait_nanos",
    "serve_queue_nanos",
};

}  // namespace

std::string_view CounterName(CounterId id) {
  BWTK_DCHECK_LT(id, kNumCounters);
  return kCounterNames[id];
}

std::string_view PhaseName(PhaseId id) {
  BWTK_DCHECK_LT(id, kNumPhases);
  return kPhaseNames[id];
}

std::string_view HistName(HistId id) {
  BWTK_DCHECK_LT(id, kNumHists);
  return kHistNames[id];
}

Histogram& Histogram::operator+=(const Histogram& other) {
  for (size_t b = 0; b < kHistBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
  return *this;
}

Histogram& Histogram::operator-=(const Histogram& other) {
  for (size_t b = 0; b < kHistBuckets; ++b) buckets[b] -= other.buckets[b];
  count -= other.count;
  sum -= other.sum;
  return *this;
}

uint64_t EstimateQuantile(const Histogram& hist, double q) {
  if (hist.count == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q >= 1.0) q = 1.0;
  // Rank of the target observation (1-based, clamped to [1, count]).
  const double target = q * static_cast<double>(hist.count);
  double rank = target < 1.0 ? 1.0 : target;
  double cumulative = 0.0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    const double in_bucket = static_cast<double>(hist.buckets[b]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      const uint64_t lo = BucketLowerBound(b);
      const uint64_t hi = BucketUpperBound(b);
      // Linear interpolation across the bucket's value range by the
      // fraction of the bucket's observations below the target rank.
      const double frac = (rank - cumulative) / in_bucket;
      const double width = static_cast<double>(hi - lo);
      return lo + static_cast<uint64_t>(width * frac);
    }
    cumulative += in_bucket;
  }
  return BucketUpperBound(kHistBuckets - 1);
}

MetricsBlock& MetricsBlock::operator+=(const MetricsBlock& other) {
  for (size_t i = 0; i < kNumCounters; ++i) counters[i] += other.counters[i];
  for (size_t i = 0; i < kNumPhases; ++i) {
    phase_nanos[i] += other.phase_nanos[i];
    phase_calls[i] += other.phase_calls[i];
  }
  for (size_t i = 0; i < kNumHists; ++i) hists[i] += other.hists[i];
  return *this;
}

MetricsBlock Diff(const MetricsBlock& after, const MetricsBlock& before) {
  MetricsBlock delta = after;
  for (size_t i = 0; i < kNumCounters; ++i) {
    delta.counters[i] -= before.counters[i];
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    delta.phase_nanos[i] -= before.phase_nanos[i];
    delta.phase_calls[i] -= before.phase_calls[i];
  }
  for (size_t i = 0; i < kNumHists; ++i) delta.hists[i] -= before.hists[i];
  return delta;
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked so that threads exiting after main (detached, or joined by a
  // static destructor elsewhere) can still safely Unregister.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Folds a *live* (possibly concurrently-written) block into `total` using
// relaxed per-slot loads; see the single-writer contract in metrics.h.
void AddSampled(MetricsBlock& total, const MetricsBlock& live) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    total.counters[i] += SlotLoad(live.counters[i]);
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    total.phase_nanos[i] += SlotLoad(live.phase_nanos[i]);
    total.phase_calls[i] += SlotLoad(live.phase_calls[i]);
  }
  for (size_t i = 0; i < kNumHists; ++i) {
    Histogram& dst = total.hists[i];
    const Histogram& src = live.hists[i];
    for (size_t b = 0; b < kHistBuckets; ++b) {
      dst.buckets[b] += SlotLoad(src.buckets[b]);
    }
    dst.count += SlotLoad(src.count);
    dst.sum += SlotLoad(src.sum);
  }
}

}  // namespace

MetricsBlock MetricsRegistry::Snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsBlock total = retired_;
  for (const MetricsBlock* block : live_) AddSampled(total, *block);
  return total;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.Clear();
  for (MetricsBlock* block : live_) block->Clear();
}

void MetricsRegistry::Register(MetricsBlock* block) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.push_back(block);
}

void MetricsRegistry::Unregister(MetricsBlock* block) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_ += *block;
  live_.erase(std::find(live_.begin(), live_.end(), block));
}

}  // namespace bwtk::obs
