// read_mapper — the paper's motivating application: map short reads onto a
// reference genome allowing up to k mismatches per alignment.
//
// Usage:
//   ./read_mapper [flags]                            # self-contained demo
//   ./read_mapper [flags] genome.fa reads.fq [k] [t] # FASTQ vs FASTA,
//                                                    # t worker threads
// Flags:
//   --shards=N          cut the genome into N shards (parallel per-shard
//                       index build, seam-exact routed search); overlap is
//                       sized automatically to max read length + k so
//                       output stays identical to the monolithic index
//   --trace-out=FILE    write a Chrome trace-event JSON file (open it in
//                       https://ui.perfetto.dev or chrome://tracing) with
//                       sampled per-query traces + the slow-query log
//   --trace-sample=R    per-query sampling probability in [0, 1]
//                       (default 0.01 when --trace-out is given, else 0)
//   --slow=N            slow-query log depth (default 8)
//
// In demo mode a synthetic genome and wgsim-like reads are generated, the
// genome is indexed, and each read (both strands) is aligned; output is a
// minimal tab-separated mapping report plus aggregate statistics.
//
// Mapping is batched: both strands of every read become one BatchQuery and
// the whole workload runs through BatchSearcher's worker pool over the
// shared index, one scratch per thread. Output is identical to the old
// read-at-a-time loop — per-query results come back in input order.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bwtk.h"
#include "util/stopwatch.h"

namespace {

struct Mapping {
  size_t position;
  char strand;
  int32_t mismatches;
};

struct TraceFlags {
  std::string trace_out;
  double sample_rate = -1.0;  // <0: unset; resolves to 0.01 with trace_out
  size_t slow_count = 8;
  size_t num_shards = 0;  // 0/1: monolithic index; >=2: sharded
};

double ResolvedSampleRate(const TraceFlags& flags) {
  if (flags.sample_rate >= 0.0) return flags.sample_rate;
  return flags.trace_out.empty() ? 0.0 : 0.01;
}

void PrintSlowQueries(const bwtk::obs::TraceSink& sink) {
  const auto slow = sink.SlowTraces();
  if (slow.empty()) return;
  std::printf("# slow queries (slowest first):\n");
  std::printf("# trace_id\tk\twall_us\tmatches\tnodes\tmax_depth"
              "\tnodes_per_depth\n");
  for (const auto& trace : slow) {
    std::string profile;
    for (size_t d = 0; d < trace.nodes_per_depth.size(); ++d) {
      if (d > 0) profile += ',';
      profile += std::to_string(trace.nodes_per_depth[d]);
    }
    std::printf("# %llu\t%d\t%.1f\t%llu\t%llu\t%llu\t%s\n",
                static_cast<unsigned long long>(trace.trace_id), trace.k,
                static_cast<double>(trace.wall_ns) * 1e-3,
                static_cast<unsigned long long>(trace.matches),
                static_cast<unsigned long long>(trace.NodesExpanded()),
                static_cast<unsigned long long>(trace.MaxDepth()),
                profile.c_str());
  }
}

int RunPipeline(const std::vector<bwtk::DnaCode>& genome,
                const std::vector<bwtk::FastqRecord>& reads, int32_t k,
                int num_threads, const TraceFlags& trace_flags) {
  // Queries 2i and 2i+1 are the forward and reverse strand of read i. Built
  // before the index so sharded mode can size its overlap to the longest
  // read (+ k), the exactness bound of the seam rule.
  std::vector<bwtk::BatchQuery> queries;
  queries.reserve(reads.size() * 2);
  size_t max_read_length = 0;
  for (const auto& read : reads) {
    if (read.sequence.size() > max_read_length) {
      max_read_length = read.sequence.size();
    }
    queries.push_back({read.sequence, k});
    queries.push_back({bwtk::ReverseComplement(read.sequence), k});
  }

  const size_t num_shards = trace_flags.num_shards;
  std::optional<bwtk::KMismatchSearcher> searcher;
  std::optional<bwtk::ShardedIndex> sharded;
  bwtk::Stopwatch build_watch;
  if (num_shards >= 2) {
    bwtk::ShardedIndexOptions shard_options;
    shard_options.num_shards = num_shards;
    shard_options.overlap = max_read_length + static_cast<size_t>(k);
    shard_options.num_build_threads = num_threads;
    auto sharded_or = bwtk::ShardedIndex::Build(genome, shard_options);
    if (!sharded_or.ok()) {
      std::fprintf(stderr, "sharded index build failed: %s\n",
                   sharded_or.status().ToString().c_str());
      return 1;
    }
    sharded.emplace(std::move(sharded_or).value());
    std::printf(
        "# indexed %zu bp in %.3f s across %zu shards "
        "(overlap %zu, index memory: %.2f MB)\n",
        genome.size(), build_watch.ElapsedSeconds(), sharded->num_shards(),
        sharded->overlap(), sharded->MemoryUsage() / 1048576.0);
    const bwtk::FmIndex& shard0 = sharded->shard(0);
    std::printf("# rank kernel: %.*s, prefix table q: %u\n",
                static_cast<int>(shard0.rank_kernel_name().size()),
                shard0.rank_kernel_name().data(), shard0.prefix_table_q());
  } else {
    auto searcher_or = bwtk::KMismatchSearcher::Build(genome);
    if (!searcher_or.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   searcher_or.status().ToString().c_str());
      return 1;
    }
    searcher.emplace(std::move(searcher_or).value());
    std::printf("# indexed %zu bp in %.3f s (index memory: %.2f MB)\n",
                genome.size(), build_watch.ElapsedSeconds(),
                searcher->index().MemoryUsage() / 1048576.0);
    std::printf("# rank kernel: %.*s, prefix table q: %u\n",
                static_cast<int>(searcher->index().rank_kernel_name().size()),
                searcher->index().rank_kernel_name().data(),
                searcher->index().prefix_table_q());
  }

  bwtk::BatchOptions batch_options;
  batch_options.num_threads = num_threads;
  batch_options.trace_sample_rate = ResolvedSampleRate(trace_flags);
  batch_options.slow_trace_count = trace_flags.slow_count;
  batch_options.trace_out = trace_flags.trace_out;

  // Per-query engine time comes from the registry's query_nanos log2
  // histogram: diff the process-wide snapshot around the batch so only this
  // batch's queries land in the estimate. A bidirectional query's time runs
  // from its walk's first turn to its last, and a worker interleaves up to
  // eight walks, so it is a span of the worker's time, not a latency a
  // caller waits for.
  const bwtk::obs::MetricsBlock before =
      bwtk::obs::MetricsRegistry::Instance().Snapshot();
  bwtk::Stopwatch map_watch;
  // The engines stay alive past the search so the trace sink (borrowed
  // below) remains valid through reporting.
  std::optional<bwtk::BatchSearcher> mono_engine;
  std::optional<bwtk::ShardedBatchSearcher> shard_engine;
  bwtk::BatchResult result;
  if (sharded) {
    shard_engine.emplace(&*sharded, batch_options);
    auto result_or = shard_engine->Search(queries);
    if (!result_or.ok()) {
      std::fprintf(stderr, "sharded search failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    result = std::move(result_or).value();
  } else {
    mono_engine.emplace(*searcher, batch_options);
    result = mono_engine->Search(queries);
  }
  const int used_threads =
      sharded ? shard_engine->num_threads() : mono_engine->num_threads();
  const double map_seconds = map_watch.ElapsedSeconds();
  const bwtk::obs::MetricsBlock delta =
      bwtk::obs::Diff(bwtk::obs::MetricsRegistry::Instance().Snapshot(),
                      before);

  size_t mapped = 0;
  size_t multi = 0;
  size_t unmapped = 0;
  std::printf("# read\tstrand\tposition\tmismatches\n");
  for (size_t i = 0; i < reads.size(); ++i) {
    std::vector<Mapping> mappings;
    for (const char strand : {'+', '-'}) {
      const auto& hits = result.occurrences[2 * i + (strand == '-' ? 1 : 0)];
      for (const auto& hit : hits) {
        mappings.push_back({hit.position, strand, hit.mismatches});
      }
    }
    if (mappings.empty()) {
      ++unmapped;
      std::printf("%s\t*\t*\t*\n", reads[i].name.c_str());
      continue;
    }
    ++mapped;
    if (mappings.size() > 1) ++multi;
    // Report the best (fewest-mismatch) mapping first, like an aligner's
    // primary alignment.
    const Mapping* best = &mappings[0];
    for (const auto& mapping : mappings) {
      if (mapping.mismatches < best->mismatches) best = &mapping;
    }
    std::printf("%s\t%c\t%zu\t%d\n", reads[i].name.c_str(), best->strand,
                best->position, best->mismatches);
  }
  std::printf(
      "# mapped %zu/%zu reads (%zu multi-mapping, %zu unmapped) "
      "in %.3f s on %d threads (%.0f reads/s)\n",
      mapped, reads.size(), multi, unmapped, map_seconds, used_threads,
      reads.empty() ? 0.0 : reads.size() / map_seconds);
  std::printf("# M-tree leaves (n') total: %llu; search() calls: %llu\n",
              static_cast<unsigned long long>(result.stats.mtree_leaves),
              static_cast<unsigned long long>(result.stats.extend_calls));
  if (sharded) {
    std::printf("# sharded: %zu shards, %llu seam duplicates removed\n",
                sharded->num_shards(),
                static_cast<unsigned long long>(result.seam_hits_deduped));
  }

  // The one-line batch summary: throughput + query_nanos quantiles + slow
  // log.
  const bwtk::obs::Histogram& latency =
      delta.hists[bwtk::obs::kHistQueryNanos];
  const bwtk::obs::TraceSink* sink =
      sharded ? shard_engine->trace_sink() : mono_engine->trace_sink();
  std::printf(
      "# batch: %zu reads in %.3f s (%.0f reads/s), per-query engine time "
      "(first to last step) p50=%.1fus p95=%.1fus (n=%llu), slow-log %zu\n",
      reads.size(), map_seconds,
      reads.empty() ? 0.0 : reads.size() / map_seconds,
      static_cast<double>(bwtk::obs::EstimateQuantile(latency, 0.50)) * 1e-3,
      static_cast<double>(bwtk::obs::EstimateQuantile(latency, 0.95)) * 1e-3,
      static_cast<unsigned long long>(latency.count),
      sink != nullptr ? sink->SlowTraces().size() : size_t{0});

  if (sink != nullptr) {
    std::printf("# traced %llu/%zu queries (sample rate %.3g)\n",
                static_cast<unsigned long long>(sink->traces_offered()),
                queries.size(), sink->options().sample_rate);
    PrintSlowQueries(*sink);
    if (!trace_flags.trace_out.empty()) {
      std::printf("# trace written to %s — open it at "
                  "https://ui.perfetto.dev\n",
                  trace_flags.trace_out.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TraceFlags trace_flags;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_flags.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
      trace_flags.sample_rate = std::atof(arg + 15);
    } else if (std::strncmp(arg, "--slow=", 7) == 0) {
      trace_flags.slow_count = static_cast<size_t>(std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      const int shards = std::atoi(arg + 9);
      trace_flags.num_shards = shards > 0 ? static_cast<size_t>(shards) : 0;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.size() >= 2) {
    const auto fasta = bwtk::ReadFastaFile(
        positional[0], {.ambiguity = bwtk::AmbiguityPolicy::kReplaceWithA});
    if (!fasta.ok() || fasta->empty()) {
      std::fprintf(stderr, "cannot read genome %s\n", positional[0]);
      return 1;
    }
    const auto reads = bwtk::ReadFastqFile(positional[1]);
    if (!reads.ok()) {
      std::fprintf(stderr, "cannot read reads %s\n", positional[1]);
      return 1;
    }
    const int32_t k =
        positional.size() > 2 ? std::atoi(positional[2]) : 3;
    const int num_threads =
        positional.size() > 3 ? std::atoi(positional[3]) : 0;
    return RunPipeline((*fasta)[0].sequence, *reads, k, num_threads,
                       trace_flags);
  }

  // Demo mode.
  std::printf("# demo: synthetic 2 Mbp genome, 50 reads of 150 bp, k = 3\n");
  bwtk::GenomeOptions genome_options;
  genome_options.length = 2 << 20;
  genome_options.repeat_fraction = 0.3;
  const auto genome = bwtk::GenerateGenome(genome_options).value();
  bwtk::ReadSimOptions read_options;
  read_options.read_length = 150;
  read_options.read_count = 50;
  const auto simulated = bwtk::SimulateReads(genome, read_options).value();
  return RunPipeline(genome, bwtk::ToFastq(simulated, "sim"), 3,
                     /*num_threads=*/0, trace_flags);
}
