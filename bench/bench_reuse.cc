// Reuse benchmark: quantifies the exact-duplicate result cache
// (search/result_cache.h) on top of the batch engines, monolithic and
// sharded, against the cache-off baseline.
// Emits BENCH_<name>.json (created_by "bench_reuse", validated by
// tools/validate_bench_json.py, gated by tools/bench_diff.py per
// (workload, read_length, k, engine, threads), where `engine` carries the
// reuse configuration).
//
// Two workloads:
//   * reuse-zipf:   a Zipf(s = 1.0) draw over a small pool of distinct
//                   patterns — a duplicate-heavy stream in which half the
//                   pool are first-symbol variants of the other half, so
//                   distinct queries still share suffixes but not keys.
//   * reuse-unique: every query distinct — the overhead-exposure case;
//                   reuse-on is expected within a few percent of off.
//
// Timed runs are single-threaded, so each row's wall time is the reuse
// tier's cost alone, not the pool's scaling. The cross-validation grid,
// which only compares hit lists, runs multi-threaded.
//
// Every configuration's per-query hit lists are compared byte-for-byte
// against the reuse-off baseline (and the monolithic baseline against the
// serial engine) before anything is written — the bench refuses to report
// wrong answers. The cross-validation grid extends that check across
// engines x k = 0..5, monolithic and sharded.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "search/algorithm_a.h"
#include "search/batch_searcher.h"
#include "search/result_cache.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace bwtk::bench {
namespace {

// One reuse configuration; `name` is the run's `engine` key in the report.
struct ConfigSpec {
  const char* name;
  bool cache = false;    // BatchOptions::result_cache.enabled
  bool sharded = false;  // route through ShardedBatchSearcher
};

constexpr ConfigSpec kConfigs[] = {
    {"batch_off"},
    {"batch_cache", /*cache=*/true},
    {"sharded_off", false, /*sharded=*/true},
    {"sharded_cache", true, /*sharded=*/true},
};

// Zipf(s = 1.0) over ranks 1..n. Weights are exact IEEE divisions
// (1.0 / r), so the drawn sequence is reproducible across platforms —
// the query stream, and with it total_hits, is deterministic.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t r = 1; r <= n; ++r) {
      sum += 1.0 / static_cast<double>(r);
      cdf_.push_back(sum);
    }
  }

  size_t Draw(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// `distinct` patterns: the first half sampled reads, the second half the
// same reads with the first symbol flipped — distinct keys for the result
// cache that still share their whole suffix with a pool member.
std::vector<std::vector<DnaCode>> MakePool(const std::vector<DnaCode>& genome,
                                           size_t read_length,
                                           size_t distinct, uint64_t seed) {
  auto pool = MakeReads(genome, read_length, (distinct + 1) / 2, seed);
  const size_t bases = pool.size();
  for (size_t i = 0; i < bases && pool.size() < distinct; ++i) {
    auto variant = pool[i];
    variant[0] = DnaCode((variant[0] + 1) % kDnaAlphabetSize);
    pool.push_back(std::move(variant));
  }
  return pool;
}

std::vector<BatchQuery> ZipfQueries(
    const std::vector<std::vector<DnaCode>>& pool, size_t count, int32_t k,
    uint64_t seed) {
  const ZipfSampler zipf(pool.size());
  Rng rng(seed);
  std::vector<BatchQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back({pool[zipf.Draw(&rng)], k});
  }
  return queries;
}

std::vector<BatchQuery> UniqueQueries(
    const std::vector<std::vector<DnaCode>>& reads, int32_t k) {
  std::vector<BatchQuery> queries;
  queries.reserve(reads.size());
  for (const auto& read : reads) queries.push_back({read, k});
  return queries;
}

BatchOptions MakeOptions(const ConfigSpec& cfg, int threads,
                         BatchEngine engine,
                         std::shared_ptr<ResultCache>* cache_out) {
  BatchOptions options;
  options.num_threads = threads;
  options.engine = engine;
  if (cfg.cache) {
    ResultCacheOptions cache_options;
    cache_options.enabled = true;
    auto cache = std::make_shared<ResultCache>(cache_options);
    options.result_cache_instance = cache;
    if (cache_out != nullptr) *cache_out = std::move(cache);
  }
  return options;
}

struct RunOutcome {
  double wall_seconds = std::numeric_limits<double>::max();
  uint64_t total_hits = 0;
  SearchStats stats;
  ResultCache::CacheStats cache_stats;
  std::vector<std::vector<Occurrence>> occurrences;  // from the first rep
};

// Runs `queries` under `cfg` `reps` times with a fresh searcher (and fresh
// cache) per rep, so every rep is an identical cold-start batch. Wall is
// the min across reps; hits/stats/cache counters come from the first rep (and
// hits are asserted identical across reps).
RunOutcome RunTimed(const FmIndex& index, const ShardedIndex& sharded,
                    const ConfigSpec& cfg,
                    const std::vector<BatchQuery>& queries, int reps) {
  RunOutcome out;
  for (int rep = 0; rep < reps; ++rep) {
    std::shared_ptr<ResultCache> cache;
    const BatchOptions options =
        MakeOptions(cfg, /*threads=*/1, BatchEngine::kAlgorithmA, &cache);
    BatchResult result;
    double wall = 0;
    if (cfg.sharded) {
      ShardedBatchSearcher searcher(&sharded, options);
      Stopwatch watch;
      auto sharded_result = searcher.Search(queries);
      wall = watch.ElapsedSeconds();
      if (!sharded_result.ok()) {
        std::fprintf(stderr, "%s: sharded search failed: %s\n", cfg.name,
                     std::string(sharded_result.status().message()).c_str());
        std::exit(1);
      }
      result = std::move(sharded_result.value());
    } else {
      BatchSearcher searcher(&index, options);
      Stopwatch watch;
      result = searcher.Search(queries);
      wall = watch.ElapsedSeconds();
    }
    uint64_t hits = 0;
    for (const auto& list : result.occurrences) hits += list.size();
    if (rep == 0) {
      out.total_hits = hits;
      out.stats = result.stats;
      out.occurrences = std::move(result.occurrences);
      if (cache != nullptr) out.cache_stats = cache->Stats();
    } else if (hits != out.total_hits) {
      std::fprintf(stderr, "%s: rep %d found %llu hits, rep 0 found %llu\n",
                   cfg.name, rep, static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(out.total_hits));
      std::exit(1);
    }
    out.wall_seconds = std::min(out.wall_seconds, wall);
  }
  return out;
}

bool SameHits(const std::vector<std::vector<Occurrence>>& a,
              const std::vector<std::vector<Occurrence>>& b,
              const char* label) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "%s: query count mismatch (%zu vs %zu)\n", label,
                 a.size(), b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::fprintf(stderr, "%s: hits differ at query %zu\n", label, i);
      return false;
    }
  }
  return true;
}

// The acceptance grid: engines x k, monolithic and sharded, reuse-on vs
// reuse-off, per-query byte identity. Returns the number of validated
// (engine, k, topology) cells; sets *ok = false on any divergence.
size_t CrossValidate(const FmIndex& index, const ShardedIndex& sharded,
                     const std::vector<std::vector<DnaCode>>& pool,
                     bool smoke, int threads, bool* ok) {
  // Duplicate every pool pattern so the cache path is exercised in-batch.
  struct GridCell {
    BatchEngine engine;
    std::vector<int32_t> k_values;
  };
  const std::vector<GridCell> grid =
      smoke ? std::vector<GridCell>{{BatchEngine::kAlgorithmA, {0, 2}},
                                    {BatchEngine::kSTree, {0, 2}}}
            : std::vector<GridCell>{
                  {BatchEngine::kAlgorithmA, {0, 1, 2, 3, 4, 5}},
                  {BatchEngine::kSTree, {0, 1, 2, 3, 4, 5}},
                  // Levenshtein blow-up makes k > 2 impractical here; the
                  // cache path is engine-agnostic, so small k suffices.
                  {BatchEngine::kKError, {0, 1, 2}}};

  size_t cells = 0;
  for (const GridCell& cell : grid) {
    for (const int32_t k : cell.k_values) {
      std::vector<BatchQuery> queries;
      queries.reserve(pool.size() * 2);
      for (const auto& pattern : pool) queries.push_back({pattern, k});
      for (const auto& pattern : pool) queries.push_back({pattern, k});
      const std::string label =
          std::string(BatchEngineName(cell.engine)) + "/k=" +
          std::to_string(k);

      // Monolithic: reuse-off baseline vs cache.
      ConfigSpec off{"crossval_off"};
      ConfigSpec reuse{"crossval_reuse", /*cache=*/true};
      BatchResult base_mono, reuse_mono;
      {
        BatchSearcher searcher(
            &index, MakeOptions(off, threads, cell.engine, nullptr));
        base_mono = searcher.Search(queries);
      }
      {
        BatchSearcher searcher(
            &index, MakeOptions(reuse, threads, cell.engine, nullptr));
        reuse_mono = searcher.Search(queries);
      }
      if (!SameHits(base_mono.occurrences, reuse_mono.occurrences,
                    (label + " monolithic reuse-on vs off").c_str())) {
        *ok = false;
      }
      ++cells;

      // Sharded: cache-off baseline vs cache; and the sharded baseline
      // against the monolithic one (coordinate identity).
      ConfigSpec shard_off{"crossval_sharded_off", false, true};
      ConfigSpec shard_reuse{"crossval_sharded_reuse", true, true};
      BatchResult base_shard, reuse_shard;
      {
        ShardedBatchSearcher searcher(
            &sharded, MakeOptions(shard_off, threads, cell.engine, nullptr));
        auto result = searcher.Search(queries);
        if (!result.ok()) {
          std::fprintf(stderr, "%s: sharded baseline failed: %s\n",
                       label.c_str(),
                       std::string(result.status().message()).c_str());
          *ok = false;
          continue;
        }
        base_shard = std::move(result.value());
      }
      {
        ShardedBatchSearcher searcher(
            &sharded,
            MakeOptions(shard_reuse, threads, cell.engine, nullptr));
        auto result = searcher.Search(queries);
        if (!result.ok()) {
          std::fprintf(stderr, "%s: sharded reuse run failed: %s\n",
                       label.c_str(),
                       std::string(result.status().message()).c_str());
          *ok = false;
          continue;
        }
        reuse_shard = std::move(result.value());
      }
      if (!SameHits(base_shard.occurrences, reuse_shard.occurrences,
                    (label + " sharded reuse-on vs off").c_str())) {
        *ok = false;
      }
      if (!SameHits(base_mono.occurrences, base_shard.occurrences,
                    (label + " sharded vs monolithic").c_str())) {
        *ok = false;
      }
      ++cells;
    }
  }
  return cells;
}

int Run(int argc, char** argv) {
  ReportFlags flags;
  flags.name = "reuse";
  if (!ParseReportFlags(argc, argv, &flags)) return 2;

  const bool smoke = flags.smoke;
  const std::string genome_tag = smoke ? "smoke-32K" : "synth-1M";
  const size_t genome_length = smoke ? (1u << 15) : Scaled(1u << 20);
  const size_t read_length = smoke ? 50 : 100;
  const size_t query_count = smoke ? 96 : Scaled(480);
  const size_t zipf_distinct = smoke ? 16 : 64;
  const std::vector<int32_t> k_values =
      smoke ? std::vector<int32_t>{1} : std::vector<int32_t>{1, 3};
  const int reps = smoke ? 1 : 2;
  const int crossval_threads = 4;

  PrintBanner(
      "bench_reuse: result-cache reuse -> BENCH_" + flags.name + ".json",
      genome_tag + ", " + std::to_string(query_count) + " queries of " +
          std::to_string(read_length) + " bp (zipf over " +
          std::to_string(zipf_distinct) + " distinct / all-unique), " +
          std::to_string(reps) + " rep(s), timed runs single-threaded");

  const auto genome = MakeGenome(genome_length);
  const auto index = FmIndex::Build(genome).value();
  ShardedIndexOptions shard_options;
  shard_options.num_shards = smoke ? 4 : 8;
  shard_options.overlap = read_length + 16;
  const auto sharded = ShardedIndex::Build(genome, shard_options).value();

  const auto zipf_pool = MakePool(genome, read_length, zipf_distinct, 7);
  const auto unique_reads =
      MakeReads(genome, read_length, query_count, /*seed=*/9);

  // Cross-validation grid first: a correctness failure should abort before
  // any timing work. The grid uses its own (smaller) text in full mode so
  // k = 5 stays tractable.
  bool grid_ok = true;
  size_t grid_cells = 0;
  {
    const auto cv_genome = smoke ? genome : MakeGenome(1u << 17, 43);
    const size_t cv_read_length = smoke ? 40 : 60;
    const auto cv_index = smoke ? FmIndex::Build(genome).value()
                                : FmIndex::Build(cv_genome).value();
    ShardedIndexOptions cv_shard_options;
    cv_shard_options.num_shards = 4;
    cv_shard_options.overlap = cv_read_length + 12;
    const auto cv_sharded =
        ShardedIndex::Build(cv_genome, cv_shard_options).value();
    const auto cv_pool =
        MakePool(cv_genome, cv_read_length, smoke ? 12 : 24, 11);
    grid_cells = CrossValidate(cv_index, cv_sharded, cv_pool, smoke,
                               crossval_threads, &grid_ok);
    if (!grid_ok) {
      std::fprintf(stderr,
                   "cross-validation grid diverged — refusing to report "
                   "wrong answers\n");
      return 1;
    }
    std::printf("cross-validation: %zu cells byte-identical\n\n", grid_cells);
  }

  struct Row {
    std::string workload;
    int32_t k;
    const ConfigSpec* config;
    size_t queries;
    RunOutcome outcome;
  };
  std::vector<Row> rows;
  // Reserve the exact row count: `baseline` below points into `rows`, so
  // the vector must never reallocate.
  rows.reserve(k_values.size() * 2 *
               (sizeof(kConfigs) / sizeof(kConfigs[0])));

  const AlgorithmA serial(&index);
  AlgorithmAScratch scratch;
  TablePrinter table({"workload", "k", "config", "wall", "reads/s", "hits",
                      "cache hits"});

  for (const int32_t k : k_values) {
    struct Workload {
      std::string name;
      std::vector<BatchQuery> queries;
    };
    const std::vector<Workload> workloads = {
        {"reuse-zipf-" + genome_tag,
         ZipfQueries(zipf_pool, query_count, k, 101 + k)},
        {"reuse-unique-" + genome_tag, UniqueQueries(unique_reads, k)},
    };
    for (const Workload& workload : workloads) {
      const RunOutcome* baseline = nullptr;
      for (const ConfigSpec& cfg : kConfigs) {
        rows.push_back({workload.name, k, &cfg, workload.queries.size(),
                        RunTimed(index, sharded, cfg, workload.queries,
                                 reps)});
        const RunOutcome& outcome = rows.back().outcome;

        // Correctness gate: the monolithic baseline must match the serial
        // engine per query; every other config must match the baseline.
        const std::string label = workload.name + "/k=" +
                                  std::to_string(k) + "/" + cfg.name;
        if (std::strcmp(cfg.name, "batch_off") == 0) {
          for (size_t i = 0; i < workload.queries.size(); ++i) {
            const auto expected = serial.Search(workload.queries[i].pattern,
                                                k, nullptr, &scratch);
            if (outcome.occurrences[i] != expected) {
              std::fprintf(stderr,
                           "%s: query %zu differs from the serial engine — "
                           "refusing to report wrong answers\n",
                           label.c_str(), i);
              return 1;
            }
          }
          baseline = &outcome;
        } else if (!SameHits(baseline->occurrences, outcome.occurrences,
                             label.c_str())) {
          std::fprintf(stderr, "refusing to report wrong answers\n");
          return 1;
        }
        const double qps =
            outcome.wall_seconds > 0
                ? static_cast<double>(workload.queries.size()) /
                      outcome.wall_seconds
                : 0;
        table.AddRow({workload.name, std::to_string(k), cfg.name,
                      FormatSeconds(outcome.wall_seconds),
                      std::to_string(static_cast<uint64_t>(qps)),
                      FormatCount(outcome.total_hits),
                      FormatCount(outcome.cache_stats.hits)});
      }
    }
  }

  // Aggregate speedups: reuse-off wall over cache wall, summed per workload
  // family across k (monolithic), plus the sharded cache ratio.
  auto wall_sum = [&](const std::string& family, const char* config) {
    double sum = 0;
    for (const Row& row : rows) {
      if (row.workload.find(family) != std::string::npos &&
          std::strcmp(row.config->name, config) == 0) {
        sum += row.outcome.wall_seconds;
      }
    }
    return sum;
  };
  const double zipf_off = wall_sum("reuse-zipf", "batch_off");
  const double zipf_full = wall_sum("reuse-zipf", "batch_cache");
  const double unique_off = wall_sum("reuse-unique", "batch_off");
  const double unique_full = wall_sum("reuse-unique", "batch_cache");
  const double zipf_shard_off = wall_sum("reuse-zipf", "sharded_off");
  const double zipf_shard_cache = wall_sum("reuse-zipf", "sharded_cache");
  const double zipf_speedup = zipf_full > 0 ? zipf_off / zipf_full : 0;
  const double unique_ratio = unique_full > 0 ? unique_off / unique_full : 0;
  const double zipf_sharded_speedup =
      zipf_shard_cache > 0 ? zipf_shard_off / zipf_shard_cache : 0;

  table.Print();
  std::printf(
      "\naggregate: zipf cache speedup %.2fx, unique ratio %.2fx, "
      "sharded cache speedup %.2fx\n",
      zipf_speedup, unique_ratio, zipf_sharded_speedup);

  BenchReport report("bench_reuse", flags);
  const std::string families[2] = {"reuse-zipf-" + genome_tag,
                                   "reuse-unique-" + genome_tag};
  for (const std::string& family : families) {
    const bool zipf = family == families[0];
    obs::JsonWriter& workload = report.AddWorkload(family, genome.size());
    workload.Key("seed")
        .Value(42)
        .Key("query_count")
        .Value(static_cast<uint64_t>(zipf ? query_count
                                          : unique_reads.size()))
        .Key("distinct_queries")
        .Value(static_cast<uint64_t>(zipf ? zipf_distinct
                                          : unique_reads.size()))
        .Key("reps")
        .Value(reps)
        .Key("num_shards")
        .Value(static_cast<uint64_t>(shard_options.num_shards));
    if (zipf) workload.Key("zipf_exponent").Value(1.0);
  }
  for (const Row& row : rows) {
    const RunOutcome& r = row.outcome;
    report.AddRun({row.workload, read_length, row.k, row.config->name, 1},
                  r.wall_seconds, row.queries, r.total_hits, r.stats)
        .Key("cache_hits")
        .Value(r.cache_stats.hits)
        .Key("cache_misses")
        .Value(r.cache_stats.misses)
        .Key("cache_evictions")
        .Value(r.cache_stats.evictions);
  }
  return std::move(report).Write() ? 0 : 1;
}

}  // namespace
}  // namespace bwtk::bench

int main(int argc, char** argv) { return bwtk::bench::Run(argc, argv); }
