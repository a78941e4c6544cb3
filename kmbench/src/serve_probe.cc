// serve_probe: open-loop Poisson load over loopback TCP against
// serve::Server on a 2-worker Session running `auto`, set up the way
// `serve_tool serve --index F --engine auto --threads 2` does.
//
// After a warm-up, the run is rounds of a `low` chunk, a `mid` chunk and a
// few max_qps trials, with a host-speed reading before each of the three;
// a round the host preempts is left out and measured again (kMaxBusySteal).
// Every request carries a distinct probe. The traced run repeats the load
// with the stats trailer on every query and adds an untraced `mid` chunk
// just before each traced one, so the two compare back to back.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "engine.h"
#include "host_speed.h"
#include "loadgen.h"
#include "oracle.h"
#include "report.h"
#include "serve/client.h"
#include "stats.h"
#include "workloads.h"

namespace kmbench {

using bwtk::obs::TraceClockNanos;
namespace {

// Offered rates in queries/s, fixed at about a quarter and a half of the
// max_qps measured when this benchmark was introduced. They never follow
// the run's own capacity: then the rate, and the latency measured at it,
// would move with every run, and a faster program would be tested harder.
constexpr double kLowQps = 15000;
constexpr double kMidQps = 30000;

// A max_qps trial keeps pace when its backlog drains this soon after the
// last send.
constexpr uint64_t kPaceSlackNs = 10'000'000;

// A host that preempts this guest spoils served latency beyond what
// host-speed scaling corrects: with 12-25% of CPU time stolen, the p50 at
// the low rate went from 0.1 to 1-3 ms. Such episodes came and went over
// minutes. So when more than kMaxBusySteal of the busy CPU time was stolen
// since the last check (over the set-ups, then over each round), the run
// waits, host-speed readings keeping two CPUs busy, until a one-second
// window passes under that limit, for at most kMaxCalmWaitNs in all. A
// round with that much stolen is measured again after the wait, at most
// kMaxRedoneRounds times in a run and only while the wait budget lasts; the
// requests of the round left out still count as attempted. The median over
// the rounds absorbs preempted rounds beyond that, up to two of five. The
// probe pool covers kRounds + kMaxRedoneRounds rounds without a repeat.
constexpr double kMaxBusySteal = 0.10;
constexpr uint64_t kCalmWindowNs = 1'000'000'000;
constexpr uint64_t kMaxCalmWaitNs = 75'000'000'000;
constexpr int kMaxRedoneRounds = 4;

constexpr int kConnections = 2;

// Set-ups per run: setup_s is their median. One loads the index file and
// derives its reverse half, a second or two.
constexpr int kSetups = 7;
// A request unanswered this long after its phase's last due time counts as
// failed. The server has no request timeout and answers every query, so
// only a stall of the whole host this long, or a lost answer, reaches it.
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000;
constexpr size_t kMaxSpanTraces = 10000;

// Phase lengths as shares of --seconds. The run is kRounds rounds, each a
// `low` chunk, a `mid` chunk and kTrialsPerRound max_qps trials, so that a
// host stall spoils one chunk or one trial, never a whole phase.
constexpr int kRounds = 5;
constexpr int kTrialsPerRound = 4;
constexpr double kWarmupShare = 0.03;
constexpr double kLowShare = 0.04;    // per chunk
constexpr double kMidShare = 0.02;    // per chunk
constexpr double kTrialShare = 0.03;  // per trial

struct PhaseStats {
  size_t sent = 0;
  size_t ok = 0;
  std::vector<double> latency_us;  // OK requests, from the due time
  double p50_us = 0;
  double late_p99_us = 0;  // send time - due time
  double late_max_us = 0;
  double drain_ms = 0;     // last RESULT - last due time
  double sent_qps = 0;     // achieved send rate
  double result_bytes = 0;  // mean RESULT frame size
  uint64_t frames = 0;
  uint64_t recvs = 0;
  bool kept_pace = false;
  double success_frac() const { return sent == 0 ? 0 : double(ok) / sent; }
};

PhaseStats Summarize(const PhaseOutcome& phase) {
  PhaseStats s;
  s.sent = phase.requests.size();
  std::vector<double> late;
  uint64_t last_sent = phase.start_ns;
  for (const RequestRecord& r : phase.requests) {
    if (r.sent_ns != 0) {
      late.push_back((r.sent_ns - r.scheduled_ns) * 1e-3);
      last_sent = std::max(last_sent, r.sent_ns);
    }
    if (!r.ok()) continue;
    ++s.ok;
    s.latency_us.push_back(r.latency_ns() * 1e-3);
    s.result_bytes += r.result_bytes;
  }
  if (s.ok > 0) s.result_bytes /= s.ok;
  s.p50_us = Quantile(s.latency_us, 0.5);
  s.late_p99_us = Quantile(late, 0.99);
  s.late_max_us = Quantile(late, 1.0);
  s.drain_ms = (phase.drained_ns - phase.last_due_ns) * 1e-6;
  if (last_sent > phase.start_ns) {
    s.sent_qps = late.size() / ((last_sent - phase.start_ns) * 1e-9);
  }
  s.frames = phase.frames;
  s.recvs = phase.recvs;
  s.kept_pace = phase.error.empty() &&
                phase.drained_ns - phase.last_due_ns <= kPaceSlackNs;
  return s;
}

// The chunks of one fixed rate: p50 is the median of the chunk p50s; the
// other figures pool or bound the chunks.
struct RateStats {
  std::vector<PhaseStats> chunks;

  double p50_us() const {
    std::vector<double> p50s;
    for (const PhaseStats& c : chunks) p50s.push_back(c.p50_us);
    return Median(p50s);
  }
  double result_bytes() const {
    std::vector<double> bytes;
    for (const PhaseStats& c : chunks) bytes.push_back(c.result_bytes);
    return Median(bytes);
  }

  void Print(const char* name, double offered_qps) const {
    size_t sent = 0, ok = 0;
    double sent_qps = 0, late_p99 = 0, late_max = 0, drain = 0;
    std::vector<double> all;
    std::string p50s;
    for (const PhaseStats& c : chunks) {
      sent += c.sent;
      ok += c.ok;
      sent_qps += c.sent_qps / chunks.size();
      late_p99 = std::max(late_p99, c.late_p99_us);
      late_max = std::max(late_max, c.late_max_us);
      drain = std::max(drain, c.drain_ms);
      all.insert(all.end(), c.latency_us.begin(), c.latency_us.end());
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.1f", p50s.empty() ? "" : " ",
                    c.p50_us);
      p50s += buf;
    }
    Diag("%-9s offered %.0f/s sent %.0f/s ok %zu/%zu p50 %.1f us (chunks "
         "%s; pooled %.1f) p99 %.1f us (n=%zu) late p99 %.1f max %.1f us "
         "drain max %.2f ms",
         name, offered_qps, sent_qps, ok, sent, p50_us(), p50s.c_str(),
         Quantile(all, 0.5), Quantile(all, 0.99), all.size(), late_p99,
         late_max, drain);
  }
};

// The served run keeps the last CPU of `all` for the load generator and
// confines the calling thread, and so every thread it starts from then on
// (the server's), to the others: client and server share no CPU, as on
// separate hosts. Returns the generator's CPU; nothing, and no change, with
// fewer than two CPUs.
std::optional<int> ReserveClientCpu(const cpu_set_t& all) {
  if (CPU_COUNT(&all) < 2) return std::nullopt;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) last = cpu;
  }
  cpu_set_t server = all;
  CPU_CLR(last, &server);
  if (::sched_setaffinity(0, sizeof(server), &server) != 0) return std::nullopt;
  return last;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// Runs host-speed readings until a window of kCalmWindowNs passes with at
// most kMaxBusySteal of the busy CPU time stolen, or until `*budget_ns` is
// spent; what the wait takes comes off the budget.
void AwaitCalmHost(HostSpeedProbe& probe, uint64_t* budget_ns) {
  while (*budget_ns > 0) {
    const uint64_t begin = TraceClockNanos();
    const CpuTimes before = ReadCpuTimes();
    while (TraceClockNanos() - begin < kCalmWindowNs) probe.Measure(kWorkers);
    const double steal = BusyStealFrac(before, ReadCpuTimes());
    *budget_ns -= std::min(*budget_ns, TraceClockNanos() - begin);
    if (steal <= kMaxBusySteal) return;
  }
}

// One trace per served request: due → sent → RESULT parsed, with the
// server-reported queue wait and engine time as children. The server does
// not report when those two started, so they are drawn from the send time.
void RecordRequestSpans(const PhaseOutcome& phase, int32_t k,
                        size_t pattern_length, bwtk::obs::TraceSink* log) {
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const RequestRecord& r = phase.requests[i];
    if (!r.ok()) continue;
    bwtk::obs::Trace trace;
    trace.trace_id = phase.request_id_base | i;  // the wire request_id
    trace.engine = "served_query";
    trace.k = k;
    trace.pattern_length = pattern_length;
    trace.thread_index = static_cast<uint32_t>(i % kConnections);
    trace.begin_ns = r.scheduled_ns;
    trace.wall_ns = r.latency_ns();
    trace.matches = r.hits;
    trace.stats.extend_calls = r.extend_calls;
    trace.stats.completed_paths = r.completed_paths;
    trace.stats.budget_pruned = r.budget_pruned;
    trace.spans = {
        {"send_wait", r.scheduled_ns, r.sent_ns - r.scheduled_ns, 0},
        {"round_trip", r.sent_ns, r.done_ns - r.sent_ns, 0},
        {"server_queue", r.sent_ns, r.queue_ns, 1},
        {"engine_search", r.sent_ns + r.queue_ns, r.search_ns, 1},
    };
    log->Offer(std::move(trace));
  }
}

}  // namespace

int RunServed(const RunArgs& args) {
  // The probe's process forks first, while this one is small and has no
  // threads.
  const std::unique_ptr<HostSpeedProbe> probe = HostSpeedProbe::Start();
  const WorkloadSpec& spec = *args.spec;
  auto naive_or = LoadNaiveSample(args.dir);
  auto properties_or = LoadProperties(args.dir);
  if (probe == nullptr || !naive_or.ok() || !properties_or.ok()) {
    std::fprintf(stderr, "kmbench: cannot start the host-speed probe or "
                 "read the inputs in %s\n", args.dir.c_str());
    return 1;
  }
  // Spans are recorded in the traced run only.
  std::unique_ptr<bwtk::obs::TraceSink> spans =
      args.trace ? MakeSpanLog(kMaxSpanTraces) : nullptr;
  const double inputs_rss_mb = RssMb();

  // Set-up, repeated; the last stack serves the run. optional::reset tears
  // a stack down server first, index last. The server's threads, all
  // started during set-up, inherit this thread's affinity; the load
  // generator then moves to the CPU left out.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  ::sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  const std::optional<int> client_cpu = ReserveClientCpu(all_cpus);
  CpuTimes checked = ReadCpuTimes();  // the last check for preemption
  std::optional<ServedStack> stack;
  SetupSummary setup;
  const bwtk::Status started = SetUp(
      kSetups,
      [&](SetupTimes* times) {
        return StartServed(IndexPath(args.dir), times);
      },
      {"index_load", "reverse_half", "server_start"}, *probe, spans.get(),
      &stack, &setup);
  if (!started.ok()) {
    std::fprintf(stderr, "kmbench: set-up failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  const uint16_t port = stack->server->port();

  // Oracle gate, over the public blocking client, before anything is timed.
  {
    auto client = bwtk::serve::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "kmbench: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    std::vector<Hits> served;
    for (const size_t q : naive_or->queries) {
      Hits hits;
      auto pattern = LoadPatterns(spec, args.dir, q, 1);
      if (pattern.ok()) {
        auto response = (*client)->Query((*pattern)[0], spec.k);
        if (response.ok()) hits = std::move(response->hits);
      }
      served.push_back(std::move(hits));
    }
    const bwtk::Status gate =
        CheckAgainstNaive(naive_or->answers, served, naive_or->queries);
    if (!gate.ok()) {
      Diag("oracle gate failed: %s", gate.ToString().c_str());
      PrintResult(false, served.size(), 1, {});
      return 1;
    }
  }

  auto loadgen_or = OpenLoopClient::Connect(port, kConnections);
  if (!loadgen_or.ok()) {
    std::fprintf(stderr, "kmbench: %s\n",
                 loadgen_or.status().ToString().c_str());
    return 1;
  }
  OpenLoopClient& loadgen = **loadgen_or;
  if (client_cpu) PinToCpu(*client_cpu);

  // Every request carries the next unused probe, read from the queries
  // file just before its phase; each OK answer is checked against the
  // reference pass's digest.
  size_t cursor = 0;
  bool wrapped = false;  // the probes ran out and repeat
  bool inputs_ok = true;
  uint64_t sent = 0, repeated = 0, mismatches = 0;
  uint64_t phase_seed = args.seed << 16;
  auto run_phase = [&](double qps, double share, bool traced) {
    const std::vector<uint64_t> schedule = PoissonSchedule(
        qps, static_cast<uint64_t>(share * args.seconds * 1e9), ++phase_seed);
    const size_t count = schedule.size();
    if (cursor + count > spec.num_queries) {
      wrapped = true;
      cursor = 0;
    }
    sent += count;
    if (wrapped) repeated += count;
    auto patterns = LoadPatterns(spec, args.dir, cursor, count);
    auto reference = LoadReferenceDigests(args.dir, cursor, count);
    cursor += count;
    if (!patterns.ok() || !reference.ok()) {
      inputs_ok = false;
      PhaseOutcome none;
      none.requests.resize(count);
      none.error = "cannot read the probes";
      return none;
    }
    PhaseOutcome phase =
        loadgen.Run(schedule, TraceClockNanos() + 200'000, *patterns, 0,
                    spec.k, traced, kDrainTimeoutNs);
    for (size_t i = 0; i < count; ++i) {
      const RequestRecord& r = phase.requests[i];
      if (r.ok() && r.digest != (*reference)[i]) ++mismatches;
    }
    return phase;
  };

  MaxQpsPlan plan;
  plan.start_qps = kMidQps;
  plan.floor_qps = kLowQps;
  plan.ceiling_qps = 8 * kMidQps;
  MaxQpsSearch search(plan);
  RateStats low, mid, mid_plain;
  std::vector<PhaseOutcome> traced_mid;  // per-layer samples (traced run)
  std::string trial_log;
  uint64_t attempted = 0, failed = 0, frames = 0, recvs = 0;
  auto fixed_rate_chunk = [&](double qps, double share, bool traced,
                              RateStats* rate) {
    PhaseOutcome chunk = run_phase(qps, share, traced);
    const PhaseStats s = Summarize(chunk);
    attempted += s.sent;
    failed += s.sent - s.ok;
    frames += s.frames;
    recvs += s.recvs;
    rate->chunks.push_back(s);
    return chunk;
  };

  std::vector<double> step_speeds;  // host speed between the timed phases
  const CpuTimes cpu_before = ReadCpuTimes();
  run_phase(kMidQps, kWarmupShare, false);
  auto read_speed = [&] {
    step_speeds.push_back(probe->Measure(kWorkers));
    return step_speeds.back();
  };
  uint64_t calm_budget_ns = kMaxCalmWaitNs;
  int redone = 0;  // rounds left out for preemption and measured again
  for (int round = 0; round < kRounds; ++round) {
    if (BusyStealFrac(checked, ReadCpuTimes()) > kMaxBusySteal) {
      AwaitCalmHost(*probe, &calm_budget_ns);
    }
    checked = ReadCpuTimes();
    const MaxQpsSearch search_before = search;
    const size_t readings_before = step_speeds.size();
    read_speed();
    fixed_rate_chunk(kLowQps, kLowShare, args.trace, &low);
    read_speed();
    // The traced run measures an untraced mid chunk right before the traced
    // one, for the tracing overhead.
    if (args.trace) fixed_rate_chunk(kMidQps, kMidShare, false, &mid_plain);
    PhaseOutcome chunk = fixed_rate_chunk(kMidQps, kMidShare, args.trace, &mid);
    read_speed();
    for (int t = 0; t < kTrialsPerRound; ++t) {
      const double qps = search.rate();
      const PhaseStats s = Summarize(run_phase(qps, kTrialShare, args.trace));
      StepResult step;
      step.p50_us = s.p50_us;
      step.success_frac = s.success_frac();
      step.kept_pace = s.kept_pace;
      const bool passed = MeetsLimit(step);
      search.Record(passed);
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.0f%c(%.0fus,%.3f)", qps,
                    passed ? '+' : '-', s.p50_us, s.success_frac());
      trial_log += buf;
    }
    if (redone < kMaxRedoneRounds && calm_budget_ns > 0 &&
        BusyStealFrac(checked, ReadCpuTimes()) > kMaxBusySteal) {
      // Preempted: the round's chunks, trials and host-speed readings are
      // left out, and the next pass waits for the host before measuring it
      // again.
      low.chunks.pop_back();
      mid.chunks.pop_back();
      if (args.trace) mid_plain.chunks.pop_back();
      search = search_before;
      step_speeds.resize(readings_before);
      trial_log += " [round left out: preempted]";
      ++redone;
      --round;
      continue;
    }
    if (args.trace) {
      // Spans of the chunks the per-layer figures come from.
      RecordRequestSpans(chunk, spec.k, spec.query_length, spans.get());
      traced_mid.push_back(std::move(chunk));
    }
  }
  read_speed();
  const CpuTimes cpu_after = ReadCpuTimes();
  const double peak_rss_mb = PeakRssMb();
  const double max_qps = search.Estimate();
  if (!inputs_ok) {
    std::fprintf(stderr, "kmbench: cannot read the probes in %s\n",
                 args.dir.c_str());
    return 1;
  }

  low.Print("low", kLowQps);
  if (args.trace) mid_plain.Print("mid/plain", kMidQps);
  mid.Print("mid", kMidQps);
  Diag("max_qps trials (rate, +pass/-fail, p50, ok share):%s",
       trial_log.c_str());
  Diag("max_qps %.0f/s after %d reversals; cpu steal %.4f over the timed "
       "window; RESULT frames per recv %.3f (fixed-rate chunks)",
       max_qps, search.reversals(), StealFrac(cpu_before, cpu_after),
       recvs == 0 ? 0.0 : double(frames) / recvs);

  // Untraced frames: no stats trailer.
  const double result_bytes =
      args.trace ? mid_plain.result_bytes() : mid.result_bytes();
  Diag("properties: %s (reference pass over every probe), RESULT "
       "bytes/query %.2f, repeated probes sent %.4f, index bytes %zu",
       properties_or->c_str(), result_bytes, double(repeated) / sent,
       stack->index->MemoryUsage());
  Diag("waited %.1f s for the host to stop preempting this guest; %d "
       "preempted rounds left out and measured again",
       (kMaxCalmWaitNs - calm_budget_ns) * 1e-9, redone);
  DiagPreempted(StealFrac(cpu_before, cpu_after));
  Diag("rss: %.1f MB with the inputs loaded, before set-up; peak %.1f MB",
       inputs_rss_mb, peak_rss_mb);
  DiagHostSpeed(*probe, setup, step_speeds);

  failed += mismatches;
  const bool correct = mismatches == 0;
  if (!correct) Diag("%llu answers differ from the reference pass",
                     static_cast<unsigned long long>(mismatches));
  DiagFailed(failed, attempted);
  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup.setup_s;
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.success_frac = 1.0 - double(failed) / attempted;
    // One host speed for the run, the median of its readings: the one or
    // two readings beside a single chunk or block of trials are noisier
    // than the host's drift within a run (see kmbench/README.md).
    const double speed = Median(step_speeds);
    e2e.throughput_qps = RateAtReferenceSpeed(search.Estimate(), speed);
    e2e.lat_p50_us = AtReferenceSpeed(low.p50_us(), speed);
    PrintResult(correct, attempted, failed, EndToEndMetrics(e2e));
    return correct ? 0 : 1;
  }

  Layers layers;
  layers.setup = setup.steps;
  layers.index_mb = stack->index->MemoryUsage() / 1048576.0;
  layers.result_bytes = result_bytes;
  double traced_ns = 0;
  for (const PhaseOutcome& chunk : traced_mid) {
    traced_ns += chunk.last_due_ns - chunk.start_ns;
    for (const RequestRecord& r : chunk.requests) {
      if (!r.ok()) continue;
      const double queue_us = r.queue_ns * 1e-3;
      const double search_us = r.search_ns * 1e-3;
      layers.queue_us.push_back(queue_us);
      layers.search_us.push_back(search_us);
      layers.frontend_us.push_back(r.latency_ns() * 1e-3 - queue_us -
                                   search_us);
      layers.queries += 1;
      layers.hits += r.hits;
      layers.extend_calls += r.extend_calls;
      layers.completed_paths += r.completed_paths;
      layers.budget_pruned += r.budget_pruned;
      layers.timed_engine_ns += r.search_ns;
      layers.timed_extend_calls += r.extend_calls;
    }
  }
  layers.worker_busy_frac = layers.timed_engine_ns / (traced_ns * kWorkers);
  layers.trace_overhead_frac = mid.p50_us() / mid_plain.p50_us() - 1.0;
  WriteSpanLog(*spans, args.trace_out);
  PrintResult(correct, attempted, failed, PerLayerMetrics(layers));
  return correct ? 0 : 1;
}

}  // namespace kmbench
