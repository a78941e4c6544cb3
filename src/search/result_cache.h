// Exact-duplicate query result cache (the L3 reuse tier).
//
// Query streams reaching a serving tier are heavily skewed: popular reads,
// probe patterns, and retried RPCs repeat the exact same (pattern, k) far
// more often than a uniform model predicts. This cache short-circuits
// *identical* queries outright — a hash lookup instead of any search at all.
//
// Keys are (engine, k, index_version, pattern bytes). The index version is a
// content fingerprint (FmIndexVersion below), so a rebuilt or swapped index
// naturally misses every stale entry — there is no explicit invalidation
// hook to forget. Values store the hits *and* the SearchStats the original
// execution produced, so a cache-served query contributes the same stats a
// fresh execution would and aggregate accounting stays deterministic
// whether or not the cache is warm.
//
// Eviction is strict LRU under a byte budget; a single mutex guards the
// table (one lookup per query, far off the per-node hot path). Thread-safe.

#ifndef BWTK_SEARCH_RESULT_CACHE_H_
#define BWTK_SEARCH_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "search/match.h"

namespace bwtk {

/// Knobs for the result cache, carried in BatchOptions::result_cache.
struct ResultCacheOptions {
  /// Master switch; the cache costs nothing while false.
  bool enabled = false;

  /// LRU byte budget across all entries (keys + stored hits).
  size_t capacity_bytes = size_t{64} << 20;
};

/// Content fingerprint of an FM-index: structural parameters plus sampled
/// BWT words. Two indexes over the same text with the same options agree;
/// any rebuild over different text disagrees with overwhelming probability.
/// O(1) — sampling is capped, not linear in the text.
uint64_t FmIndexVersion(const FmIndex& index);

/// The shared LRU cache. One instance typically fronts a Session or a
/// BatchSearcher; a shared_ptr lets it outlive an index swap (entries for
/// the old index age out by version mismatch, not by explicit flush).
class ResultCache {
 public:
  /// One cached execution.
  struct Entry {
    std::vector<Occurrence> hits;
    SearchStats stats;
    uint64_t seam_hits_deduped = 0;
  };

  /// Running totals, for tests and the stats endpoint.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  explicit ResultCache(const ResultCacheOptions& options);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached entry for (engine, k, index_version, pattern) into
  /// `*out` and returns true, or returns false on a miss. Counts
  /// result_cache_hits / result_cache_misses.
  bool Lookup(uint8_t engine, int32_t k, uint64_t index_version,
              const std::vector<DnaCode>& pattern, Entry* out);

  /// Inserts (or refreshes) an entry, evicting LRU entries as needed to
  /// respect the byte budget. An entry larger than the whole budget is
  /// dropped silently.
  void Insert(uint8_t engine, int32_t k, uint64_t index_version,
              const std::vector<DnaCode>& pattern, Entry entry);

  /// Drops everything (mainly for tests).
  void Clear();

  CacheStats Stats() const;

  const ResultCacheOptions& options() const { return options_; }

 private:
  using LruList = std::list<std::string>;  // keys, most recent first

  struct Slot {
    Entry entry;
    size_t bytes = 0;
    LruList::iterator lru_pos;
  };

  static std::string MakeKey(uint8_t engine, int32_t k, uint64_t index_version,
                             const std::vector<DnaCode>& pattern);
  size_t EntryBytes(const std::string& key, const Entry& entry) const;
  void EvictToFitLocked(size_t incoming_bytes);

  const ResultCacheOptions options_;

  mutable std::mutex mu_;
  LruList lru_;
  std::unordered_map<std::string, Slot> map_;
  size_t bytes_ = 0;
  CacheStats stats_;
};

}  // namespace bwtk

#endif  // BWTK_SEARCH_RESULT_CACHE_H_
