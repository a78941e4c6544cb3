// Bidirectional search-scheme benchmark: the head-to-head grid behind the
// AutoPickEngine table. One BidirectionalSearch (search schemes over a
// BiFmIndex) versus Algorithm A and the baseline S-tree enumeration over
// the identical reads, across k in {0..5} x read length in {24, 36, 50,
// 100}. Emits BENCH_<name>.json (created_by "bench_bidir", validated by
// tools/validate_bench_json.py, gated by tools/bench_diff.py on the
// (genome, k, engine, threads) key — the per-run genome name carries the
// read length, e.g. "synth-1M/m100", so cells stay distinct).
//
// All three engines run single-threaded on indexes built from the same
// text with the same rank configuration (shared forward half), so the
// comparison isolates the traversal strategy: left-to-right enumeration
// with budget carried deep (stree), enumeration plus mismatch reuse
// (algorithm_a), or piece-ordered bidirectional descent whose early upper
// bounds kill mismatch-rich branches first (bidirectional). Before any
// timing is reported every read's hit vector is compared across all three
// engines — the bench refuses to report wrong answers.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "search/algorithm_a.h"
#include "search/match.h"
#include "search/stree_search.h"
#include "util/stopwatch.h"

namespace bwtk::bench {
namespace {

struct CellResult {
  double wall_seconds = 0;  // per evaluation of the whole read set
  uint64_t total_hits = 0;
  SearchStats stats;  // one evaluation's worth
};

// Each engine's timed passes over a cell's reads repeat until they add up
// to this long, so that a cell the scheme walk answers in microseconds is
// still timed over many passes. The counters come from the one measured
// evaluation, so they do not depend on how many passes ran. A smoke run
// times one pass: its wall times are informational, and it gates only the
// counters.
constexpr double kMinTimedSeconds = 0.2;

// Seconds per call of `pass`, called until the calls add up to
// `min_seconds` (once when it is 0).
template <typename Pass>
double SecondsPerPass(double min_seconds, const Pass& pass) {
  Stopwatch watch;
  int passes = 0;
  double elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = watch.ElapsedSeconds();
  } while (elapsed < min_seconds);
  return elapsed / passes;
}

int Run(int argc, char** argv) {
  bool smoke = false;
  std::string name = "bidir";
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_bidir [--name NAME] [--out DIR] [--smoke]\n");
      return 2;
    }
  }

  const std::string genome_name = smoke ? "smoke-32K" : "synth-1M";
  const size_t genome_length = smoke ? (1u << 15) : Scaled(1u << 20);
  const std::vector<size_t> read_lengths =
      smoke ? std::vector<size_t>{24, 100}
            : std::vector<size_t>{24, 36, 50, 100};
  const std::vector<int32_t> k_values =
      smoke ? std::vector<int32_t>{0, 1, 3}
            : std::vector<int32_t>{0, 1, 2, 3, 4, 5};
  const size_t read_count = smoke ? 8 : 32;
  const double min_timed_seconds = smoke ? 0 : kMinTimedSeconds;

  PrintBanner(
      "bench_bidir: search schemes vs enumeration head-to-head -> BENCH_" +
          name + ".json",
      genome_name + ", m in {24..100}, k in {0..5}, " +
          std::to_string(read_count) + " reads per cell");

  const auto genome = MakeGenome(genome_length);
  // The BiFmIndex tables both halves at its own q, and Algorithm A and the
  // S-tree enumeration seed from the forward half's table, so every engine
  // gets the q-gram seeds it knows how to use.
  const auto bi = BiFmIndex::Build(genome).value();
  const BidirectionalSearch bidir(&bi);
  const AlgorithmA serial(&bi.forward());
  const STreeSearch stree(&bi.forward());
  AlgorithmAScratch scratch;

  obs::JsonWriter json;
  json.BeginObject()
      .Key("schema_version")
      .Value(1)
      .Key("name")
      .Value(name)
      .Key("created_by")
      .Value("bench_bidir")
      .Key("smoke")
      .Value(smoke)
      .Key("scale")
      .Value(BenchScale())
      .Key("hardware")
      .BeginObject()
      .Key("hardware_concurrency")
      .Value(static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Key("metrics_compiled_in")
      .Value(BWTK_METRICS_ENABLED != 0)
      .EndObject()
      .Key("workload")
      .BeginObject()
      .Key("genome")
      .Value(genome_name)
      .Key("genome_length")
      .Value(static_cast<uint64_t>(genome.size()))
      .Key("read_count")
      .Value(static_cast<uint64_t>(read_count))
      .Key("prefix_table_q")
      .Value(static_cast<uint64_t>(bi.forward().prefix_table_q()))
      .EndObject();
  json.Key("runs").BeginArray();

  TablePrinter table(
      {"m", "k", "engine", "wall", "reads/s", "hits", "vs A"});

  for (const size_t m : read_lengths) {
    // One read set per length, reused across every k so a larger budget
    // strictly relaxes the same queries.
    const auto reads = MakeReads(genome, m, read_count);

    for (const int32_t k : k_values) {
      // One measured evaluation per engine for hits + stats, then the
      // timing loop; the three answers are checked read-for-read against
      // each other before anything is written.
      CellResult b;
      CellResult a;
      CellResult s;
      std::vector<std::vector<Occurrence>> bidir_hits(reads.size());
      for (size_t i = 0; i < reads.size(); ++i) {
        SearchStats one;  // Search resets the out-param; accumulate by hand
        bidir_hits[i] = bidir.Search(reads[i], k, &one);
        b.stats += one;
        b.total_hits += bidir_hits[i].size();
      }
      for (size_t i = 0; i < reads.size(); ++i) {
        SearchStats one;
        auto serial_hits = serial.Search(reads[i], k, &one, &scratch);
        NormalizeOccurrences(&serial_hits);
        a.stats += one;
        a.total_hits += serial_hits.size();
        if (serial_hits != bidir_hits[i]) {
          std::fprintf(stderr,
                       "m=%zu k=%d: bidirectional and algorithm_a disagree "
                       "on read %zu — refusing to report wrong answers\n",
                       m, k, i);
          return 1;
        }
      }
      for (size_t i = 0; i < reads.size(); ++i) {
        SearchStats one;
        auto stree_hits = stree.Search(reads[i], k, &one);
        NormalizeOccurrences(&stree_hits);
        s.stats += one;
        s.total_hits += stree_hits.size();
        if (stree_hits != bidir_hits[i]) {
          std::fprintf(stderr,
                       "m=%zu k=%d: bidirectional and stree disagree on "
                       "read %zu — refusing to report wrong answers\n",
                       m, k, i);
          return 1;
        }
      }

      b.wall_seconds = SecondsPerPass(min_timed_seconds, [&] {
        for (const auto& read : reads) bidir.Search(read, k, nullptr);
      });
      a.wall_seconds = SecondsPerPass(min_timed_seconds, [&] {
        for (const auto& read : reads) {
          serial.Search(read, k, nullptr, &scratch);
        }
      });
      s.wall_seconds = SecondsPerPass(min_timed_seconds, [&] {
        for (const auto& read : reads) stree.Search(read, k, nullptr);
      });

      const std::string run_genome = genome_name + "/m" + std::to_string(m);
      const double speedup =
          b.wall_seconds > 0 ? a.wall_seconds / b.wall_seconds : 0;
      const CellResult* cells[3] = {&b, &a, &s};
      const char* engines[3] = {"bidirectional", "algorithm_a", "stree"};
      for (int e = 0; e < 3; ++e) {
        const CellResult& r = *cells[e];
        const double rps =
            r.wall_seconds > 0 ? read_count / r.wall_seconds : 0;
        json.BeginObject()
            .Key("genome")
            .Value(run_genome)
            .Key("genome_length")
            .Value(static_cast<uint64_t>(genome.size()))
            .Key("read_length")
            .Value(static_cast<uint64_t>(m))
            .Key("read_count")
            .Value(static_cast<uint64_t>(read_count))
            .Key("k")
            .Value(k)
            .Key("engine")
            .Value(engines[e])
            .Key("threads")
            .Value(1)
            .Key("wall_seconds")
            .Value(r.wall_seconds)
            .Key("reads_per_second")
            .Value(rps)
            .Key("total_hits")
            .Value(r.total_hits);
        json.Key("stats");
        obs::AppendSearchStats(r.stats, &json);
        json.EndObject();
        table.AddRow({std::to_string(m), std::to_string(k), engines[e],
                      FormatSeconds(r.wall_seconds),
                      std::to_string(static_cast<uint64_t>(rps)),
                      FormatCount(r.total_hits),
                      e == 0 ? std::to_string(speedup).substr(0, 4) + "x"
                             : "-"});
      }
    }
  }
  json.EndArray().EndObject();
  table.Print();

  const std::string path = out_dir + "/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << std::move(json).TakeString() << "\n";
  if (!out.flush()) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace bwtk::bench

int main(int argc, char** argv) { return bwtk::bench::Run(argc, argv); }
