// bench_rank_kernel — head-to-head of the OccTable gap-scan kernels.
//
// Builds one OccTable per {checkpoint rate} x {kernel} combination over the
// same BWT and measures the average per-call cost of the two rank
// primitives with MeasureRank, the loop bench_report calibrates with
// (random positions so the checkpoint gap scan is represented, serial
// dependency through the position so the loop cannot be vectorized away).
//
// Rank is expected to be kernel-invariant (single-symbol rank is one
// popcount per word under every kernel); RankAll is where the word64 and
// AVX2 kernels earn their keep, and where the gap widens with the
// checkpoint rate.
//
//   bench_rank_kernel [--name NAME] [--out DIR] [--smoke]
//
// Emits BENCH_<name>.json with created_by "bench_rank_kernel": one
// workload per checkpoint rate and one run per kernel on it (read_length
// and k are 0). The schema is documented in docs/OBSERVABILITY.md and
// validated by tools/validate_bench_json.py.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bwt/bwt.h"
#include "bwt/occ_table.h"

namespace bwtk::bench {
namespace {

struct Measurement {
  std::string workload;
  OccTable::RankKernel kernel = OccTable::RankKernel::kScalar;
  RankCost cost;
};

int Run(int argc, char** argv) {
  ReportFlags flags;
  flags.name = "rank_kernel";
  if (!ParseReportFlags(argc, argv, &flags)) return 2;

  const size_t genome_length =
      Scaled(flags.smoke ? (1u << 16) : (1u << 21));
  const size_t iters = flags.smoke ? 50000 : 400000;
  const std::vector<uint32_t> rates = {32, 64, 128};
  std::vector<OccTable::RankKernel> kernels = {OccTable::RankKernel::kScalar,
                                              OccTable::RankKernel::kWord64};
  if (OccTable::Avx2Available()) {
    kernels.push_back(OccTable::RankKernel::kAvx2);
  }

  PrintBanner(
      "bench_rank_kernel: gap-scan kernels -> BENCH_" + flags.name + ".json",
      std::to_string(rates.size()) + " checkpoint rates x " +
          std::to_string(kernels.size()) + " kernels, " +
          FormatCount(iters) + " calls each" +
          (OccTable::Avx2Available() ? "" : " (avx2 unavailable: skipped)"));

  const auto genome = MakeGenome(genome_length, 42);
  const Bwt bwt = BwtFromText(genome).value();

  BenchReport report("bench_rank_kernel", flags);
  TablePrinter table({"rate", "kernel", "rank ns", "rankall ns"});
  std::vector<Measurement> measurements;
  for (const uint32_t rate : rates) {
    const std::string workload = "rate-" + std::to_string(rate);
    report.AddWorkload(workload, genome_length)
        .Key("seed")
        .Value(42)
        .Key("checkpoint_rate")
        .Value(rate);
    for (const OccTable::RankKernel kernel : kernels) {
      const OccTable occ = OccTable::Build(&bwt, rate, kernel).value();
      // One warmup pass so page faults and the branch predictor settle
      // outside the measured loops.
      (void)MeasureRank(occ, iters / 10 + 1);
      measurements.push_back({workload, kernel, MeasureRank(occ, iters)});
      const RankCost& cost = measurements.back().cost;
      char rank_buf[32];
      char rankall_buf[32];
      std::snprintf(rank_buf, sizeof(rank_buf), "%.1f", cost.rank_ns);
      std::snprintf(rankall_buf, sizeof(rankall_buf), "%.1f",
                    cost.rankall_ns);
      table.AddRow({std::to_string(rate), std::string(occ.kernel_name()),
                    rank_buf, rankall_buf});
    }
  }

  for (const Measurement& m : measurements) {
    const double wall_seconds =
        (m.cost.rank_ns + m.cost.rankall_ns) * static_cast<double>(iters) /
        1e9;
    report
        .AddRun({m.workload, 0, 0, OccTable::KernelName(m.kernel), 1},
                wall_seconds, "calls_per_second", 2.0 * iters)
        .Key("rank_ns")
        .Value(m.cost.rank_ns)
        .Key("rankall_ns")
        .Value(m.cost.rankall_ns)
        .Key("iters")
        .Value(static_cast<uint64_t>(iters));
  }
  table.Print();
  return std::move(report).Write() ? 0 : 1;
}

}  // namespace
}  // namespace bwtk::bench

int main(int argc, char** argv) { return bwtk::bench::Run(argc, argv); }
