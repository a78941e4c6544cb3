// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of the paper's Section V and
// prints it as an aligned text table with the same rows/series the paper
// reports. Sizes are scaled relative to the paper's genomes (see DESIGN.md);
// the BWTK_BENCH_SCALE environment variable multiplies all default sizes
// (e.g. BWTK_BENCH_SCALE=4 for a longer, more faithful run).

#ifndef BWTK_BENCH_BENCH_COMMON_H_
#define BWTK_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "bwt/occ_table.h"
#include "obs/json.h"
#include "search/match.h"
#include "simulate/read_simulator.h"

namespace bwtk::bench {

/// BWTK_BENCH_SCALE (default 1.0), clamped to [0.01, 1024].
double BenchScale();

/// Applies the scale to a base size with a floor.
size_t Scaled(size_t base_size);

/// Deterministic benchmark genome: GC 0.41, 30% repeats.
std::vector<DnaCode> MakeGenome(size_t length, uint64_t seed = 42);

/// Deterministic wgsim-like reads (forward strand so every engine sees the
/// identical query workload).
std::vector<std::vector<DnaCode>> MakeReads(const std::vector<DnaCode>& genome,
                                            size_t read_length,
                                            size_t read_count,
                                            uint64_t seed = 7);

/// Column-aligned table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds with an adaptive unit (s / ms / us).
std::string FormatSeconds(double seconds);

/// Formats a byte count as MB with two decimals.
std::string FormatMb(size_t bytes);

/// Formats a count with thousands separators.
std::string FormatCount(uint64_t value);

/// Prints the standard benchmark banner (name, genome size, scale).
void PrintBanner(const std::string& title, const std::string& setup);

/// One-line self-description of an index's rank configuration for banners
/// and logs: "kernel=avx2 prefix_q=12". Two runs that disagree on this line
/// are not comparable rank-for-rank.
std::string DescribeIndexConfig(const FmIndex& index);

/// Average cost of one OccTable::Rank and one OccTable::RankAll call.
struct RankCost {
  double rank_ns = 0;
  double rankall_ns = 0;
};

/// Times `iters` Rank calls, then `iters` RankAll calls, at rows an LCG
/// walks at random (so the checkpoint gap scan is represented); each result
/// feeds a sink, so the calls cannot be dropped.
RankCost MeasureRank(const OccTable& occ, size_t iters);

// --- Bench reports ---------------------------------------------------------
// Every JSON-emitting bench writes the same document (docs/OBSERVABILITY.md,
// "Bench report schema"), checked by tools/validate_bench_json.py and
// compared by tools/bench_diff.py.

/// Flags every JSON bench takes: --name NAME (the report is
/// <DIR>/BENCH_<NAME>.json), --out DIR and --smoke.
struct ReportFlags {
  std::string name;
  std::string out_dir = ".";
  bool smoke = false;
};

/// Parses the report flags plus the bench's own integer flags, given as
/// {"--threads", &threads} pairs. Prints the usage and returns false on
/// any other argument.
bool ParseReportFlags(
    int argc, char** argv, ReportFlags* flags,
    std::initializer_list<std::pair<const char*, int*>> int_flags = {});

/// The key of one run record, unique within a report.
struct RunKey {
  std::string_view workload;
  size_t read_length = 0;
  int32_t k = 0;
  std::string_view engine;
  int threads = 1;
};

/// One bench report: the header, the workloads the bench measured, then one
/// record per run. Add* leaves its object open for the caller's own fields
/// and returns the writer inside it; the object closes at the next Add* or
/// at Write. Every workload comes before the first run.
class BenchReport {
 public:
  BenchReport(std::string_view created_by, ReportFlags flags);

  /// Starts a workload entry with its name and genome length.
  obs::JsonWriter& AddWorkload(std::string_view name, uint64_t genome_length);

  /// Starts a run record: the key, `wall_seconds`, and `rate_field` set to
  /// `operations / wall_seconds`.
  obs::JsonWriter& AddRun(const RunKey& key, double wall_seconds,
                          std::string_view rate_field, double operations);

  /// A run over `reads` reads: reads_per_second, total_hits and stats.
  obs::JsonWriter& AddRun(const RunKey& key, double wall_seconds, size_t reads,
                          uint64_t total_hits, const SearchStats& stats);

  /// Closes the document and writes it. Prints the path, or the error and
  /// returns false.
  bool Write() &&;

 private:
  void CloseOpenObject();

  ReportFlags flags_;
  obs::JsonWriter json_;
  bool in_runs_ = false;
  bool object_open_ = false;
};

}  // namespace bwtk::bench

#endif  // BWTK_BENCH_BENCH_COMMON_H_
