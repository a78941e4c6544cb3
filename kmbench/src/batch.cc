// map_reads: one BatchSearcher with two workers running `auto`,
// set up from the genome FASTA the way read_mapper is. An untimed batch of
// every query is the warm-up and the reference; the timed phase is the same
// batch run back to back, each answer checked against the reference, with
// a host-speed reading before each batch.
//
// The traced run alternates untraced batches with batches on a second
// searcher whose BatchOptions::trace_sample_rate is on, so tracing overhead
// is a back-to-back comparison and the per-query spans come from the
// library's own trace sink.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "engine.h"
#include "host_speed.h"
#include "obs/trace.h"
#include "oracle.h"
#include "report.h"
#include "serve/wire.h"
#include "stats.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace kmbench {

using bwtk::obs::TraceClockNanos;
namespace {

// Per-query traces wanted from one traced run: enough for a p99 with ten
// samples beyond it, under the sink's cap of 4096.
constexpr double kTracedQueriesWanted = 3000;

// Batches of the timed phase, at least, however long one batch takes.
constexpr int kMinBatches = 3;

// Set-ups per run: setup_s is their median. One builds the index from the
// FASTA, several seconds.
constexpr int kSetups = 3;

struct BatchRun {
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
};

}  // namespace

int RunBatch(const RunArgs& args) {
  // The probe's process forks first, while this one is small and has no
  // threads.
  const std::unique_ptr<HostSpeedProbe> probe = HostSpeedProbe::Start();
  const WorkloadSpec& spec = *args.spec;
  auto patterns_or = LoadPatterns(spec, args.dir, 0, spec.num_queries);
  auto naive_or = LoadNaiveSample(args.dir);
  if (probe == nullptr || !patterns_or.ok() || !naive_or.ok()) {
    std::fprintf(stderr, "kmbench: cannot start the host-speed probe or "
                 "read the inputs in %s\n", args.dir.c_str());
    return 1;
  }
  auto queries_or = MakeQueries(spec, *patterns_or, 0, patterns_or->size());
  if (!queries_or.ok()) {
    std::fprintf(stderr, "kmbench: %s\n",
                 queries_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<bwtk::BatchQuery> queries = std::move(queries_or).value();
  const size_t n = queries.size();
  std::unique_ptr<bwtk::obs::TraceSink> spans =
      args.trace ? MakeSpanLog(1 << 16) : nullptr;
  const double inputs_rss_mb = RssMb();

  std::optional<BatchStack> stack;
  SetupSummary setup;
  const bwtk::Status started = SetUp(
      kSetups,
      [&](SetupTimes* times) {
        return StartBatch(GenomePath(args.dir), times);
      },
      {"fasta_parse", "index_build", "searcher_start"}, *probe, spans.get(),
      &stack, &setup);
  if (!started.ok()) {
    std::fprintf(stderr, "kmbench: set-up failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  // Reference batch (also the warm-up), then the oracle gate on it.
  bwtk::Stopwatch watch;
  const bwtk::BatchResult ref = stack->searcher->Search(queries);
  const double ref_wall_s = watch.ElapsedSeconds();
  std::vector<Hits> program;
  for (const size_t q : naive_or->queries) {
    program.push_back(q < n ? ref.occurrences[q] : Hits{});
  }
  const bwtk::Status gate =
      CheckAgainstNaive(naive_or->answers, program, naive_or->queries);
  if (!gate.ok()) {
    Diag("oracle gate failed: %s", gate.ToString().c_str());
    PrintResult(false, program.size(), 1, {});
    return 1;
  }
  std::vector<uint64_t> ref_digest(n);
  size_t with_hit = 0;
  uint64_t hits = 0;
  double result_bytes = 0;
  for (size_t q = 0; q < n; ++q) {
    const Hits& h = ref.occurrences[q];
    ref_digest[q] = HitsDigest(h);
    with_hit += !h.empty();
    hits += h.size();
    // The wire size this answer would have as a served RESULT.
    bwtk::serve::QueryResponse response;
    response.request_id = q;
    response.hits = h;
    std::string frame;
    bwtk::serve::AppendResultFrame(response, &frame);
    result_bytes += frame.size();
  }
  result_bytes /= n;

  // The traced searcher samples about kTracedQueriesWanted queries over the
  // traced half of the run.
  std::unique_ptr<bwtk::BatchSearcher> traced;
  if (args.trace) {
    const double traced_batches =
        std::max(1.0, args.seconds / ref_wall_s / 2);
    const double rate =
        std::min(1.0, kTracedQueriesWanted / (n * traced_batches));
    traced = std::make_unique<bwtk::BatchSearcher>(
        &stack->index->forward(), AutoOptions(*stack->index, rate));
  }

  uint64_t mismatches = 0;
  // traced_runs[j] is the traced searcher's batch j, the high half of its
  // trace ids.
  std::vector<BatchRun> plain_runs, traced_runs;
  std::vector<double> step_speeds;  // host speed before each batch and after
  const CpuTimes cpu_before = ReadCpuTimes();
  const uint64_t end_ns =
      TraceClockNanos() + static_cast<uint64_t>(args.seconds * 1e9);
  const int min_batches = traced != nullptr ? 2 * kMinBatches : kMinBatches;
  for (int b = 0; b < min_batches || TraceClockNanos() < end_ns; ++b) {
    const bool use_traced = traced != nullptr && b % 2 == 1;
    bwtk::BatchSearcher& searcher = use_traced ? *traced : *stack->searcher;
    step_speeds.push_back(probe->Measure(kWorkers));
    BatchRun run;
    run.start_ns = TraceClockNanos();
    const bwtk::BatchResult result = searcher.Search(queries);
    run.wall_ns = TraceClockNanos() - run.start_ns;
    for (size_t q = 0; q < n; ++q) {
      if (HitsDigest(result.occurrences[q]) != ref_digest[q]) ++mismatches;
    }
    (use_traced ? traced_runs : plain_runs).push_back(run);
  }
  step_speeds.push_back(probe->Measure(kWorkers));
  const CpuTimes cpu_after = ReadCpuTimes();
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> qps, per_query_us, plain_wall, traced_wall;
  for (const BatchRun& run : plain_runs) {
    qps.push_back(n / (run.wall_ns * 1e-9));
    per_query_us.push_back(kWorkers * run.wall_ns * 1e-3 / n);
    plain_wall.push_back(run.wall_ns * 1e-9);
  }
  for (const BatchRun& run : traced_runs) {
    traced_wall.push_back(run.wall_ns * 1e-9);
  }
  Diag("batches: %zu plain (%zu queries each), %zu traced; throughput p50 "
       "%.1f q/s, p10 %.1f, p90 %.1f as measured; cpu steal %.4f over the "
       "timed window",
       plain_runs.size(), n, traced_runs.size(), Median(qps),
       Quantile(qps, 0.1), Quantile(qps, 0.9),
       StealFrac(cpu_before, cpu_after));
  DiagPreempted(StealFrac(cpu_before, cpu_after));
  Diag("rss: %.1f MB with the inputs loaded, before set-up; peak %.1f MB",
       inputs_rss_mb, peak_rss_mb);
  DiagHostSpeed(*probe, setup, step_speeds);
  Diag("properties: queries %zu, with >=1 hit %.4f, hits/query %.4f, "
       "RESULT bytes/query %.2f, exact repeats 0, extend_calls/query %.1f, "
       "index bytes %zu",
       n, double(with_hit) / n, double(hits) / n, result_bytes,
       double(ref.stats.extend_calls) / n, stack->index->MemoryUsage());

  const uint64_t attempted = n * (plain_runs.size() + traced_runs.size());
  const bool correct = mismatches == 0;
  if (!correct) Diag("%llu answers differ from the reference batch",
                     static_cast<unsigned long long>(mismatches));
  DiagFailed(mismatches, attempted);
  if (!args.trace) {
    const double speed = Median(step_speeds);
    EndToEnd e2e;
    e2e.setup_s = setup.setup_s;
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.success_frac = 1.0 - double(mismatches) / attempted;
    e2e.throughput_qps = RateAtReferenceSpeed(Median(qps), speed);
    e2e.lat_p50_us = AtReferenceSpeed(Median(per_query_us), speed);
    PrintResult(correct, attempted, mismatches, EndToEndMetrics(e2e));
    return correct ? 0 : 1;
  }

  Layers layers;
  layers.setup = setup.steps;
  layers.index_mb = stack->index->MemoryUsage() / 1048576.0;
  layers.result_bytes = result_bytes;
  layers.queries = n;
  layers.hits = hits;
  layers.extend_calls = ref.stats.extend_calls;
  layers.completed_paths = ref.stats.completed_paths;
  layers.budget_pruned = ref.stats.budget_pruned;
  // Sampled per-query traces: engine wall, and the wait from the batch
  // call to a worker picking the query up.
  const bwtk::obs::TraceSink& sink = *traced->trace_sink();
  const std::vector<bwtk::obs::Trace> sampled = sink.SampledTraces();
  for (const bwtk::obs::Trace& t : sampled) {
    const uint64_t seq = t.trace_id >> 32;
    if (seq >= traced_runs.size()) continue;
    layers.search_us.push_back(t.wall_ns * 1e-3);
    layers.queue_us.push_back((t.begin_ns - traced_runs[seq].start_ns) * 1e-3);
    layers.timed_engine_ns += t.wall_ns;
    layers.timed_extend_calls += t.stats.extend_calls;
  }
  // Each worker's lane per batch times its task loop, wake-up to last
  // task. What the batch wall leaves outside the lanes is the pool's own
  // time: waking workers, and workers idle while the last queries finish.
  std::vector<double> busy_ns(traced_runs.size(), 0);
  for (const bwtk::obs::Trace& lane : sink.AuxTraces()) {
    const uint64_t seq = lane.trace_id >> 32;
    if (seq >= traced_runs.size()) continue;
    for (const bwtk::obs::TraceSpan& span : lane.spans) {
      if (span.name == "worker_search") busy_ns[seq] += span.dur_ns;
    }
  }
  std::vector<double> busy_frac;
  for (size_t j = 0; j < traced_runs.size(); ++j) {
    const double pool_ns = double(traced_runs[j].wall_ns) * kWorkers;
    busy_frac.push_back(busy_ns[j] / pool_ns);
    layers.frontend_us.push_back((pool_ns - busy_ns[j]) / n * 1e-3);
  }
  layers.worker_busy_frac = Median(busy_frac);
  layers.trace_overhead_frac = Median(traced_wall) / Median(plain_wall) - 1.0;

  // Spans: one per timed batch call (a traced call shares the high half of
  // its queries' trace ids), then the traced pool's own per-query traces and
  // worker lanes.
  auto record_call = [&](const BatchRun& run, uint64_t id, const char* name) {
    bwtk::obs::Trace trace;
    trace.trace_id = id;
    trace.engine = "batch_call";
    trace.begin_ns = run.start_ns;
    trace.wall_ns = run.wall_ns;
    trace.matches = hits;
    trace.spans = {{name, run.start_ns, run.wall_ns, 0}};
    spans->Offer(std::move(trace));
  };
  for (size_t j = 0; j < plain_runs.size(); ++j) {
    record_call(plain_runs[j], 1000 + j, "search_untraced");
  }
  for (size_t j = 0; j < traced_runs.size(); ++j) {
    record_call(traced_runs[j], (uint64_t{j} << 32) | 0xFFFFFFFFull,
                "search_traced");
  }
  for (const bwtk::obs::Trace& t : sampled) spans->Offer(bwtk::obs::Trace(t));
  for (bwtk::obs::Trace& t : sink.AuxTraces()) spans->OfferAux(std::move(t));
  WriteSpanLog(*spans, args.trace_out);
  PrintResult(correct, attempted, mismatches, PerLayerMetrics(layers));
  return correct ? 0 : 1;
}

}  // namespace kmbench
