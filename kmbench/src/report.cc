#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace_export.h"
#include "stats.h"

namespace kmbench {

namespace {

// Shortest text that reads back as the same double: all its digits. A
// figure left undefined by a broken run (0 / 0) prints as 0, keeping the
// line valid JSON; the run's diagnostics and success_frac say what broke.
std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  return {{"setup_s", e2e.setup_s, "s"},
          {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
          {"success_frac", e2e.success_frac, "fraction"},
          {"throughput_qps", e2e.throughput_qps, "1/s"},
          {"lat_p50_us", e2e.lat_p50_us, "us"}};
}

std::vector<Metric> PerLayerMetrics(const Layers& l) {
  auto per_query = [&](double total) {
    return l.queries > 0 ? total / l.queries : 0;
  };
  return {
      {"setup.load_s", l.setup.load_s, "s"},
      {"setup.index_s", l.setup.index_s, "s"},
      {"setup.start_s", l.setup.start_s, "s"},
      {"bwt.index_mb", l.index_mb, "MB"},
      {"queue_us.p50", Quantile(l.queue_us, 0.5), "us"},
      {"queue_us.p99", Quantile(l.queue_us, 0.99), "us"},
      {"frontend_us.p50", Quantile(l.frontend_us, 0.5), "us"},
      {"frontend_us.p99", Quantile(l.frontend_us, 0.99), "us"},
      {"serve.result_bytes", l.result_bytes, "bytes"},
      {"bidir.search_us.p50", Quantile(l.search_us, 0.5), "us"},
      {"bidir.search_us.p99", Quantile(l.search_us, 0.99), "us"},
      {"bidir.extend_calls_per_query", per_query(l.extend_calls), "count"},
      {"bidir.completed_paths_per_query", per_query(l.completed_paths),
       "count"},
      {"bidir.budget_pruned_per_query", per_query(l.budget_pruned), "count"},
      {"bidir.useful_path_ratio",
       l.completed_paths > 0 ? l.hits / l.completed_paths : 0, "ratio"},
      {"bidir.ns_per_extend",
       l.timed_extend_calls > 0 ? l.timed_engine_ns / l.timed_extend_calls
                                : 0,
       "ns"},
      {"search.worker_busy_frac", l.worker_busy_frac, "fraction"},
      {"obs.trace_overhead_frac", l.trace_overhead_frac, "fraction"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Diag(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void DiagFailed(uint64_t failed, uint64_t attempted) {
  Diag("failed_frac %.6f (%llu of %llu)",
       attempted == 0 ? 0.0 : double(failed) / attempted,
       static_cast<unsigned long long>(failed),
       static_cast<unsigned long long>(attempted));
}

void DiagHostSpeed(const HostSpeedProbe& probe, const SetupSummary& setup,
                   const std::vector<double>& step_speeds) {
  const std::vector<double>& s = setup.host_speeds;
  const std::vector<double>& v = step_speeds;
  Diag("host speed per thread (reference %.2f): set-ups %.3f (%.3f..%.3f, "
       "n=%zu, 1 thread), timed steps %.3f (%.3f..%.3f, n=%zu, %d threads); "
       "set-up %.4f s as measured; this process busy %.3f CPUs at most while "
       "readings ran",
       kReferenceSpeed, Median(s), Quantile(s, 0), Quantile(s, 1), s.size(),
       Median(v), Quantile(v, 0), Quantile(v, 1), v.size(), kWorkers,
       setup.measured_s, probe.max_busy_cpus());
}

double RssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return static_cast<double>(resident) * ::sysconf(_SC_PAGESIZE) / 1048576.0;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes times;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return times;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    times.total += value;
    if (i == 3 || i == 4) times.idle += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

double BusyStealFrac(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t busy =
      (after.total - before.total) - (after.idle - before.idle);
  if (after.total <= before.total || busy == 0) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(busy);
}

double StealFrac(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void DiagPreempted(double steal_frac) {
  if (steal_frac <= 0.02) return;
  Diag("preempted: cpu steal %.1f%% over the timed window, over 2%%; this "
       "run's time figures read the host more than the program",
       100 * steal_frac);
}

std::unique_ptr<bwtk::obs::TraceSink> MakeSpanLog(size_t max_traces) {
  bwtk::obs::TraceSinkOptions options;
  options.sample_rate = 1.0;
  options.slow_trace_count = 0;
  options.max_sampled_traces = max_traces;
  return std::make_unique<bwtk::obs::TraceSink>(options);
}

void WriteSpanLog(const bwtk::obs::TraceSink& log, const std::string& path) {
  if (path.empty()) return;
  const bwtk::Status status = bwtk::obs::WriteTraceFile(log, path);
  if (status.ok()) {
    Diag("trace: %s (%llu traces kept of %llu)", path.c_str(),
         static_cast<unsigned long long>(log.traces_offered() -
                                         log.traces_dropped()),
         static_cast<unsigned long long>(log.traces_offered()));
  } else {
    Diag("trace: not written: %s", status.ToString().c_str());
  }
}

}  // namespace kmbench
