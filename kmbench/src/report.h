// What a run prints: "# " diagnostic lines, then one result JSON object as
// the last stdout line. Also the process and host readings the report
// needs (RSS, CPU steal, host speed) and the span log written as
// Chrome-trace JSON.

#ifndef KMBENCH_REPORT_H_
#define KMBENCH_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine.h"
#include "host_speed.h"
#include "obs/trace.h"

namespace kmbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The end-to-end figures of an untraced run, the time figures at the
/// reference host speed. Every workload reports every one of them, under
/// the same names (BENCHMARK.json "end_to_end").
struct EndToEnd {
  double setup_s = 0;         ///< median over the run's set-ups
  double peak_rss_mb = 0;
  double success_frac = 0;    ///< 1 - failed / attempted
  /// served: max_qps; batch: median over batches of queries ÷ batch wall
  double throughput_qps = 0;
  /// served: at the low rate, median over its chunks; batch: median over
  /// batches of 2 × batch wall ÷ queries
  double lat_p50_us = 0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);

/// The per-layer figures of a traced run, as samples and sums; every
/// workload fills every field (BENCHMARK.json "per_layer").
struct Layers {
  SetupTimes setup;     ///< set-up step medians
  double index_mb = 0;  ///< BiFmIndex::MemoryUsage
  std::vector<double> queue_us;     ///< admission to worker pickup
  std::vector<double> frontend_us;  ///< caller-visible time outside both
  std::vector<double> search_us;    ///< engine wall per query
  double result_bytes = 0;          ///< mean RESULT frame bytes per query
  // Exact engine counters over `queries` queries.
  double queries = 0, hits = 0, extend_calls = 0, completed_paths = 0,
         budget_pruned = 0;
  // Engine wall and extend calls of the queries whose wall was timed.
  double timed_engine_ns = 0, timed_extend_calls = 0;
  double worker_busy_frac = 0;
  double trace_overhead_frac = 0;
};
std::vector<Metric> PerLayerMetrics(const Layers& layers);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// printf-style diagnostic line, prefixed "# ", on stdout.
void Diag(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// The failed_frac diagnostic: failed ÷ attempted over the timed phases.
void DiagFailed(uint64_t failed, uint64_t attempted);

/// The host-speed diagnostic: the readings' medians and range, the
/// set-up time as measured, and how busy this process was while readings
/// ran.
void DiagHostSpeed(const HostSpeedProbe& probe, const SetupSummary& setup,
                   const std::vector<double>& step_speeds);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Resident set of this process now, in MiB.
double RssMb();

/// Aggregate CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t idle = 0;  ///< idle and iowait
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Share of CPU time the hypervisor stole between two readings.
double StealFrac(const CpuTimes& before, const CpuTimes& after);

/// Share of the time this guest's CPUs were busy, or wanted to be, that
/// the hypervisor stole between two readings.
double BusyStealFrac(const CpuTimes& before, const CpuTimes& after);

/// Flags, on a diagnostic line, a run the hypervisor preempted: more than
/// 2% of CPU time stolen over its timed window. Its time figures then read
/// the host's contention more than the program, beyond what host-speed
/// scaling corrects.
void DiagPreempted(double steal_frac);

/// The benchmark's own spans, kept in memory until the run ends. Every
/// trace offered is kept, up to `max_traces`.
std::unique_ptr<bwtk::obs::TraceSink> MakeSpanLog(size_t max_traces);

/// Writes the span log as Chrome-trace JSON (opens in Perfetto) and says
/// where on a diagnostic line.
void WriteSpanLog(const bwtk::obs::TraceSink& log, const std::string& path);

}  // namespace kmbench

#endif  // KMBENCH_REPORT_H_
