// Bidirectional search-scheme benchmark: the head-to-head grid behind the
// AutoPickEngine table. One BidirectionalSearch (search schemes over a
// BiFmIndex) versus Algorithm A and the baseline S-tree enumeration over
// the identical reads, across k in {0..5} x read length in {6, 8, 10, 12,
// 16, 20, 24, 36, 50, 100}. Emits BENCH_<name>.json (created_by
// "bench_bidir", validated by tools/validate_bench_json.py, gated by
// tools/bench_diff.py per (workload, read_length, k, engine, threads)).
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
#include <string>
#include <vector>

#include "bench_common.h"
#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
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
  ReportFlags flags;
  flags.name = "bidir";
  if (!ParseReportFlags(argc, argv, &flags)) return 2;

  const bool smoke = flags.smoke;
  const std::string genome_name = smoke ? "smoke-32K" : "synth-1M";
  const size_t genome_length = smoke ? (1u << 15) : Scaled(1u << 20);
  const std::vector<size_t> read_lengths =
      smoke ? std::vector<size_t>{24, 100}
            : std::vector<size_t>{6, 8, 10, 12, 16, 20, 24, 36, 50, 100};
  const std::vector<int32_t> k_values =
      smoke ? std::vector<int32_t>{0, 1, 3}
            : std::vector<int32_t>{0, 1, 2, 3, 4, 5};
  const size_t read_count = smoke ? 8 : 32;
  const double min_timed_seconds = smoke ? 0 : kMinTimedSeconds;

  PrintBanner(
      "bench_bidir: search schemes vs enumeration head-to-head -> BENCH_" +
          flags.name + ".json",
      genome_name + ", m in {" + std::to_string(read_lengths.front()) +
          ".." + std::to_string(read_lengths.back()) + "}, k in {" +
          std::to_string(k_values.front()) + ".." +
          std::to_string(k_values.back()) + "}, " +
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

  BenchReport report("bench_bidir", flags);
  report.AddWorkload(genome_name, genome.size())
      .Key("seed")
      .Value(42)
      .Key("read_count")
      .Value(static_cast<uint64_t>(read_count))
      .Key("prefix_table_q")
      .Value(static_cast<uint64_t>(bi.forward().prefix_table_q()));

  TablePrinter table(
      {"m", "k", "engine", "wall", "reads/s", "hits", "vs A"});

  for (const size_t m : read_lengths) {
    // One read set per length, reused across every k so a larger budget
    // strictly relaxes the same queries.
    const auto reads = MakeReads(genome, m, read_count);

    for (const int32_t k : k_values) {
      // One measured evaluation per engine for hits + stats, then the
      // timing loop. Each read's three answers are checked against each
      // other before the next read runs, so a cell holds one read's hits
      // at a time, and nothing is written unless every read agrees.
      CellResult b;
      CellResult a;
      CellResult s;
      for (size_t i = 0; i < reads.size(); ++i) {
        // Search resets its stats out-param; accumulate by hand.
        SearchStats bidir_stats;
        SearchStats serial_stats;
        SearchStats stree_stats;
        const auto bidir_hits = bidir.Search(reads[i], k, &bidir_stats);
        auto serial_hits = serial.Search(reads[i], k, &serial_stats, &scratch);
        auto stree_hits = stree.Search(reads[i], k, &stree_stats);
        NormalizeOccurrences(&serial_hits);
        NormalizeOccurrences(&stree_hits);
        const char* other = serial_hits != bidir_hits  ? "algorithm_a"
                            : stree_hits != bidir_hits ? "stree"
                                                       : nullptr;
        if (other != nullptr) {
          std::fprintf(stderr,
                       "m=%zu k=%d: bidirectional and %s disagree on read "
                       "%zu — refusing to report wrong answers\n",
                       m, k, other, i);
          return 1;
        }
        b.stats += bidir_stats;
        a.stats += serial_stats;
        s.stats += stree_stats;
        b.total_hits += bidir_hits.size();
        a.total_hits += serial_hits.size();
        s.total_hits += stree_hits.size();
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

      const double speedup =
          b.wall_seconds > 0 ? a.wall_seconds / b.wall_seconds : 0;
      const CellResult* cells[3] = {&b, &a, &s};
      const char* engines[3] = {"bidirectional", "algorithm_a", "stree"};
      for (int e = 0; e < 3; ++e) {
        const CellResult& r = *cells[e];
        report.AddRun({genome_name, m, k, engines[e], 1}, r.wall_seconds,
                      read_count, r.total_hits, r.stats);
        const double rps =
            r.wall_seconds > 0 ? read_count / r.wall_seconds : 0;
        table.AddRow({std::to_string(m), std::to_string(k), engines[e],
                      FormatSeconds(r.wall_seconds),
                      std::to_string(static_cast<uint64_t>(rps)),
                      FormatCount(r.total_hits),
                      e == 0 ? std::to_string(speedup).substr(0, 4) + "x"
                             : "-"});
      }
    }
  }
  table.Print();
  return std::move(report).Write() ? 0 : 1;
}

}  // namespace
}  // namespace bwtk::bench

int main(int argc, char** argv) { return bwtk::bench::Run(argc, argv); }
