#include "shard/sharded_searcher.h"

#include <string>

#include "obs/metrics.h"

namespace bwtk {

uint64_t ShardedIndexVersion(const ShardedIndex& index) {
  constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
  uint64_t version = 0xcbf29ce484222325ULL;
  version = version * kFnvPrime + index.num_shards();
  version = version * kFnvPrime + index.overlap();
  version = version * kFnvPrime + index.text_size();
  for (size_t s = 0; s < index.num_shards(); ++s) {
    version = version * kFnvPrime + FmIndexVersion(index.shard(s));
  }
  return version;
}

size_t ShardedQueryWindow(const BatchQuery& query, BatchEngine engine) {
  size_t window = query.pattern.size();
  if (engine == BatchEngine::kKError && query.k > 0) {
    window += static_cast<size_t>(query.k);
  }
  return window;
}

uint64_t ResolveShardedHits(const ShardPlan& plan, size_t window,
                            std::vector<Occurrence>* parts,
                            std::vector<Occurrence>* merged) {
  uint64_t deduped = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    std::vector<Occurrence>& part = parts[s];
    for (const Occurrence& hit : part) {
      const size_t global = plan.LocalToGlobal(s, hit.position);
      // Keep the hit only in the one shard that owns its window; every
      // other slice containing it reports a seam duplicate.
      if (plan.OwnerShard(global, window) == s) {
        merged->push_back(Occurrence{global, hit.mismatches});
      } else {
        ++deduped;
      }
    }
    part.clear();
  }
  // Shard-order concatenation is position-sorted per shard but the seams
  // interleave; restore the canonical order.
  NormalizeOccurrences(merged);
  BWTK_METRIC_COUNT_N(kCounterSeamHitsDeduped, deduped);
  return deduped;
}

ShardedBatchSearcher::ShardedBatchSearcher(const ShardedIndex* index,
                                           const BatchOptions& options)
    : index_(index), options_(options), batch_(index, options) {}

Result<BatchResult> ShardedBatchSearcher::Search(
    const std::vector<BatchQuery>& queries) {
  const size_t overlap = index_->overlap();
  for (size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].k < 0) continue;  // decode-failed placeholder, skipped
    const size_t window = ShardedQueryWindow(queries[q], options_.engine);
    if (window > overlap) {
      return Status::InvalidArgument(
          "sharded query " + std::to_string(q) + " needs a window of " +
          std::to_string(window) + " characters but the index overlap is " +
          std::to_string(overlap) +
          "; rebuild the sharded index with a larger overlap");
    }
  }
  return batch_.Search(queries);
}

Result<BatchResult> ShardedBatchSearcher::Search(
    const std::vector<std::string>& patterns, int32_t k) {
  size_t failed = 0;
  BWTK_ASSIGN_OR_RETURN(
      std::vector<BatchQuery> queries,
      BatchSearcher::DecodeAscii(options_, patterns, k, &failed));
  BWTK_ASSIGN_OR_RETURN(BatchResult result, Search(queries));
  result.failed_queries = failed;
  return result;
}

}  // namespace bwtk
