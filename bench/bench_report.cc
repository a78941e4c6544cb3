// bench_report — the paper-shaped experiment grid as one machine-readable
// JSON report (docs/OBSERVABILITY.md documents the schema; CI validates it
// with tools/validate_bench_json.py).
//
// Runs {genomes} x {k values} x {engines: BWT-baseline serial, Algorithm A
// serial, BatchSearcher} over simulated wgsim-like reads, and for every cell
// records wall time, throughput, the engine's SearchStats, and the metrics
// registry delta (counters, per-phase nanosecond timers, histograms)
// captured around the cell. This is the trend-tracking substrate every perf
// PR reports against: run it before and after, diff the BENCH_*.json.
//
// The rank phase is *estimated*, not timed: per-call timing of an ~50 ns
// rank would dwarf the operation (see docs/OBSERVABILITY.md, "Overhead").
// Instead the driver calibrates the average Rank/RankAll cost per genome
// with MeasureRank and multiplies by the counted calls; the entry is
// marked "estimated": true in the JSON.
//
// stree, algorithm_a, batch and sharded answer the same question, so every
// read's hit list is compared across them before anything is written; the
// bench refuses to report wrong answers.
//
//   bench_report [--name NAME] [--out DIR] [--smoke] [--threads N]
//                [--prefix-q Q] [--shards S]
//
// --smoke shrinks sizes for CI while keeping the full grid shape (2 genomes
// x 3 k values x the engine list). BWTK_BENCH_SCALE applies as everywhere
// else. --prefix-q attaches a q-gram prefix interval table to every index
// (0 = none, the default — keeps old and new reports cell-for-cell
// comparable); each genome's workload entry records its "rank_kernel" and
// "prefix_table_q" so a report is self-describing about the index
// configuration it measured.
//
// The serial kerror engine (Levenshtein distance) runs only for k <= 2: its
// backtracking state space grows steeply with the budget and would dominate
// the grid's wall time at larger k.
//
// The wildcard engine runs the same reads with two positions per read
// replaced by the wildcard code (deterministic positions, len/3 and
// 2*len/3), so its cells measure genuine wildcard-branch fan-out rather
// than the degenerate no-wildcard case. Its total_hits are therefore not
// comparable to the other engines' (the workload differs by construction);
// within the wildcard row the counters are as deterministic as any other.
//
// --shards S (0 = off) additionally builds an S-shard ShardedIndex per
// genome — timing the parallel shard build against the monolithic one in
// the workload entry ("sharded_index_build_seconds", "num_shards") — and adds
// a "sharded" engine cell per k running the same batch workload through
// ShardedBatchSearcher; those runs carry a "num_shards" field.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "bwt/fm_index.h"
#include "bwt/prefix_table.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "search/algorithm_a.h"
#include "search/batch_searcher.h"
#include "search/kerror_search.h"
#include "search/stree_search.h"
#include "search/wildcard_search.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "util/stopwatch.h"

namespace bwtk::bench {
namespace {

struct GenomeSpec {
  std::string name;
  size_t length;
  uint64_t seed;
};

using Reads = std::vector<std::vector<DnaCode>>;

struct CellResult {
  std::string engine;
  int threads = 1;
  size_t num_shards = 0;  // > 0 only for the "sharded" engine
  double wall_seconds = 0;
  size_t total_hits = 0;
  SearchStats stats;
  obs::MetricsBlock delta;
  std::vector<std::vector<Occurrence>> hits;  // per read
};

/// Largest k the serial kerror cells run at (see the file comment).
constexpr int32_t kMaxKErrorBudget = 2;

/// Calls per MeasureRank loop when calibrating a genome's rank cost.
constexpr size_t kCalibrationIters = 200000;

// Runs `search(read, &stats)` over every read, one read at a time. Hamming
// hit lists are kept for the cross-check.
template <typename Search>
CellResult RunSerial(std::string engine, const Reads& reads,
                     const Search& search) {
  CellResult cell;
  cell.engine = std::move(engine);
  cell.hits.reserve(reads.size());
  const obs::MetricsBlock before = obs::MetricsRegistry::Instance().Snapshot();
  Stopwatch watch;
  for (const auto& read : reads) {
    SearchStats stats;
    auto hits = search(read, &stats);
    cell.total_hits += hits.size();
    cell.stats += stats;
    if constexpr (std::is_same_v<decltype(hits), std::vector<Occurrence>>) {
      cell.hits.push_back(std::move(hits));
    }
  }
  cell.wall_seconds = watch.ElapsedSeconds();
  cell.delta =
      obs::Diff(obs::MetricsRegistry::Instance().Snapshot(), before);
  return cell;
}

// Runs one batch through `search`, which builds a pool, answers the batch
// and tears the pool down: construction and teardown sit inside the timed
// and delta'd region, so the cell reports what a cold batch costs,
// queue-wait tail included.
template <typename Search>
CellResult RunBatch(std::string engine, int threads, const Search& search) {
  CellResult cell;
  cell.engine = std::move(engine);
  cell.threads = threads;
  const obs::MetricsBlock before = obs::MetricsRegistry::Instance().Snapshot();
  Stopwatch watch;
  BatchResult result = search();
  cell.wall_seconds = watch.ElapsedSeconds();
  cell.delta =
      obs::Diff(obs::MetricsRegistry::Instance().Snapshot(), before);
  cell.stats = result.stats;
  for (const auto& hits : result.occurrences) cell.total_hits += hits.size();
  cell.hits = std::move(result.occurrences);
  return cell;
}

// Wildcard cells run a derived workload: the same reads with two positions
// punched to the wildcard code (see the file comment).
Reads PunchWildcards(Reads reads) {
  for (auto& read : reads) {
    if (read.size() < 3) continue;
    read[read.size() / 3] = kWildcardCode;
    read[2 * read.size() / 3] = kWildcardCode;
  }
  return reads;
}

// Every engine that answers the Hamming question must return the same hits
// for every read; kerror and wildcard answer other questions.
bool HammingEnginesAgree(const std::vector<CellResult>& cells,
                         const std::string& genome, int32_t k) {
  const CellResult* reference = nullptr;
  for (const CellResult& cell : cells) {
    if (cell.engine == "kerror" || cell.engine == "wildcard") continue;
    if (reference == nullptr) {
      reference = &cell;
      continue;
    }
    for (size_t i = 0; i < reference->hits.size(); ++i) {
      if (i >= cell.hits.size() || cell.hits[i] != reference->hits[i]) {
        std::fprintf(stderr,
                     "%s k=%d: %s and %s disagree on read %zu — refusing to "
                     "report wrong answers\n",
                     genome.c_str(), k, reference->engine.c_str(),
                     cell.engine.c_str(), i);
        return false;
      }
    }
  }
  return true;
}

// The run's registry delta: the latency estimate, the phases with the rank
// phase estimated from `cost`, the counters and the histograms.
void AppendRunMetrics(const obs::MetricsBlock& delta, const RankCost& cost,
                      obs::JsonWriter* w) {
  // Quantiles estimated from the log2 per-query latency histogram:
  // order-of-magnitude faithful (bucket-bounded error), cheap, and derived
  // from data the report already carries.
  const obs::Histogram& latency = delta.hists[obs::kHistQueryNanos];
  w->Key("latency_estimate")
      .BeginObject()
      .Key("p50_nanos")
      .Value(obs::EstimateQuantile(latency, 0.50))
      .Key("p95_nanos")
      .Value(obs::EstimateQuantile(latency, 0.95))
      .Key("p99_nanos")
      .Value(obs::EstimateQuantile(latency, 0.99))
      .Key("samples")
      .Value(latency.count)
      .Key("estimated")
      .Value(true)
      .EndObject();

  const uint64_t rank_calls = delta.counters[obs::kCounterRankCalls];
  const uint64_t rankall_calls = delta.counters[obs::kCounterRankAllCalls];
  const double rank_nanos =
      static_cast<double>(rank_calls) * cost.rank_ns +
      static_cast<double>(rankall_calls) * cost.rankall_ns;
  w->Key("phases")
      .BeginObject()
      .Key("rank")
      .BeginObject()
      .Key("nanos")
      .Value(static_cast<uint64_t>(rank_nanos))
      .Key("calls")
      .Value(rank_calls + rankall_calls)
      .Key("estimated")
      .Value(true)
      .EndObject();
  for (uint32_t i = 0; i < obs::kNumPhases; ++i) {
    w->Key(obs::PhaseName(static_cast<obs::PhaseId>(i)))
        .BeginObject()
        .Key("nanos")
        .Value(delta.phase_nanos[i])
        .Key("calls")
        .Value(delta.phase_calls[i])
        .EndObject();
  }
  w->EndObject();
  w->Key("counters");
  obs::AppendCounters(delta, w);
  w->Key("histograms");
  obs::AppendHistograms(delta, w);
}

int Run(int argc, char** argv) {
  ReportFlags flags;
  flags.name = "report";
  int threads = 4;
  int prefix_q = 0;
  int shards = 0;
  if (!ParseReportFlags(argc, argv, &flags,
                        {{"--threads", &threads},
                         {"--prefix-q", &prefix_q},
                         {"--shards", &shards}})) {
    return 2;
  }
  if (shards < 0) shards = 0;
  if (threads <= 0) threads = 4;
  if (prefix_q < 0 ||
      prefix_q > static_cast<int>(PrefixIntervalTable::kMaxQ)) {
    std::fprintf(stderr, "--prefix-q must be in [0, %u]\n",
                 PrefixIntervalTable::kMaxQ);
    return 2;
  }

  const bool smoke = flags.smoke;
  const std::vector<GenomeSpec> genomes =
      smoke ? std::vector<GenomeSpec>{{"smoke-16K", 1u << 14, 42},
                                      {"smoke-32K", 1u << 15, 1042}}
            : std::vector<GenomeSpec>{{"synth-512K", 1u << 19, 42},
                                      {"synth-2M", 1u << 21, 1042}};
  const std::vector<int32_t> k_values =
      smoke ? std::vector<int32_t>{1, 2, 3} : std::vector<int32_t>{1, 3, 5};
  const size_t read_length = smoke ? 50 : 100;
  const size_t read_count = smoke ? 6 : 20;

  const size_t num_engines = shards > 0 ? 6 : 5;
  // Overlap covering every read window the grid issues, kerror included.
  const size_t shard_overlap =
      read_length + static_cast<size_t>(kMaxKErrorBudget);

  PrintBanner("bench_report: observability grid -> BENCH_" + flags.name +
                  ".json",
              std::to_string(genomes.size()) + " genomes x " +
                  std::to_string(k_values.size()) + " k values x " +
                  std::to_string(num_engines) + " engines, reads " +
                  std::to_string(read_length) + " bp x " +
                  std::to_string(read_count));

  BenchReport report("bench_report", flags);
  TablePrinter table({"genome", "k", "engine", "wall", "reads/s", "hits",
                      "extend calls", "n'"});

  struct BuiltGenome {
    GenomeSpec spec;
    Reads reads;
    FmIndex index;
    RankCost cost;
    std::unique_ptr<ShardedIndex> sharded;  // only with --shards > 0
  };
  std::vector<BuiltGenome> built;
  for (const auto& spec : genomes) {
    const size_t length = Scaled(spec.length);
    auto genome = MakeGenome(length, spec.seed);
    const obs::MetricsBlock before =
        obs::MetricsRegistry::Instance().Snapshot();
    Stopwatch watch;
    auto index =
        FmIndex::Build(genome,
                       {.prefix_table_q = static_cast<uint32_t>(prefix_q)})
            .value();
    const double build_seconds = watch.ElapsedSeconds();
    const obs::MetricsBlock delta =
        obs::Diff(obs::MetricsRegistry::Instance().Snapshot(), before);
    std::printf("# %s: %s\n", spec.name.c_str(),
                DescribeIndexConfig(index).c_str());
    std::unique_ptr<ShardedIndex> sharded;
    double sharded_build_seconds = 0;
    if (shards > 0) {
      ShardedIndexOptions shard_options;
      shard_options.num_shards = static_cast<size_t>(shards);
      shard_options.overlap = shard_overlap;
      shard_options.index_options.prefix_table_q =
          static_cast<uint32_t>(prefix_q);
      Stopwatch shard_watch;
      auto result = ShardedIndex::Build(genome, shard_options);
      if (!result.ok()) {
        std::fprintf(stderr, "sharded build failed for %s: %s\n",
                     spec.name.c_str(), result.status().ToString().c_str());
        return 1;
      }
      sharded_build_seconds = shard_watch.ElapsedSeconds();
      sharded = std::make_unique<ShardedIndex>(std::move(result).value());
    }
    const RankCost cost = MeasureRank(index.occ(), kCalibrationIters);
    obs::JsonWriter& workload = report.AddWorkload(spec.name, length);
    workload.Key("seed")
        .Value(spec.seed)
        .Key("read_count")
        .Value(static_cast<uint64_t>(read_count))
        .Key("index_build_seconds")
        .Value(build_seconds)
        .Key("index_build_phase_nanos")
        .Value(delta.phase_nanos[obs::kPhaseIndexBuild])
        .Key("index_bytes")
        .Value(static_cast<uint64_t>(index.MemoryUsage()))
        .Key("rank_ns")
        .Value(cost.rank_ns)
        .Key("rankall_ns")
        .Value(cost.rankall_ns)
        .Key("rank_kernel")
        .Value(index.rank_kernel_name())
        .Key("prefix_table_q")
        .Value(index.prefix_table_q());
    if (sharded != nullptr) {
      workload.Key("sharded_index_build_seconds")
          .Value(sharded_build_seconds)
          .Key("num_shards")
          .Value(static_cast<uint64_t>(sharded->num_shards()))
          .Key("shard_overlap")
          .Value(static_cast<uint64_t>(sharded->overlap()))
          .Key("sharded_index_bytes")
          .Value(static_cast<uint64_t>(sharded->MemoryUsage()));
    }
    built.push_back({spec,
                     MakeReads(genome, read_length, read_count, spec.seed + 7),
                     std::move(index), cost, std::move(sharded)});
  }

  BatchOptions pool_options;
  pool_options.num_threads = threads;
  for (const auto& g : built) {
    const STreeSearch stree(&g.index);
    const AlgorithmA alg(&g.index);
    const KErrorSearch kerror(&g.index);
    const WildcardSearch wildcard(&g.index);
    const Reads punched = PunchWildcards(g.reads);
    // Warm each engine once so cold-start noise lands outside the cells.
    (void)stree.Search(g.reads[0], 1);
    (void)alg.Search(g.reads[0], 1);
    for (const int32_t k : k_values) {
      std::vector<BatchQuery> queries;
      queries.reserve(g.reads.size());
      for (const auto& read : g.reads) queries.push_back({read, k});

      AlgorithmAScratch scratch;
      std::vector<CellResult> cells;
      cells.push_back(RunSerial("stree", g.reads, [&](const auto& read,
                                                      SearchStats* stats) {
        return stree.Search(read, k, stats);
      }));
      cells.push_back(RunSerial("algorithm_a", g.reads, [&](const auto& read,
                                                            SearchStats* s) {
        return alg.Search(read, k, s, &scratch);
      }));
      if (k <= kMaxKErrorBudget) {
        cells.push_back(RunSerial("kerror", g.reads, [&](const auto& read,
                                                         SearchStats* s) {
          return kerror.Search(read, k, s);
        }));
      }
      cells.push_back(RunSerial("wildcard", punched, [&](const auto& read,
                                                         SearchStats* s) {
        return wildcard.Search(read, k, s);
      }));
      cells.push_back(RunBatch("batch", threads, [&] {
        BatchSearcher batch(&g.index, pool_options);
        return batch.Search(queries);
      }));
      if (g.sharded != nullptr) {
        cells.push_back(RunBatch("sharded", threads, [&] {
          ShardedBatchSearcher sharded(g.sharded.get(), pool_options);
          auto result = sharded.Search(queries);
          if (!result.ok()) {
            std::fprintf(stderr, "sharded cell failed: %s\n",
                         result.status().ToString().c_str());
            std::exit(1);
          }
          return std::move(result).value();
        }));
        cells.back().num_shards = g.sharded->num_shards();
      }
      if (!HammingEnginesAgree(cells, g.spec.name, k)) return 1;

      for (const CellResult& cell : cells) {
        obs::JsonWriter& run = report.AddRun(
            {g.spec.name, read_length, k, cell.engine, cell.threads},
            cell.wall_seconds, read_count, cell.total_hits, cell.stats);
        if (cell.num_shards > 0) {
          run.Key("num_shards").Value(static_cast<uint64_t>(cell.num_shards));
        }
        AppendRunMetrics(cell.delta, g.cost, &run);
        const double reads_per_second =
            cell.wall_seconds > 0 ? read_count / cell.wall_seconds : 0;
        table.AddRow({g.spec.name, std::to_string(k), cell.engine,
                      FormatSeconds(cell.wall_seconds),
                      FormatCount(static_cast<uint64_t>(reads_per_second)),
                      FormatCount(cell.total_hits),
                      FormatCount(cell.stats.extend_calls),
                      FormatCount(cell.stats.mtree_leaves)});
      }
    }
  }

  table.Print();
  return std::move(report).Write() ? 0 : 1;
}

}  // namespace
}  // namespace bwtk::bench

int main(int argc, char** argv) { return bwtk::bench::Run(argc, argv); }
