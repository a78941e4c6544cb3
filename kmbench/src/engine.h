// The one place that wires an index into the engines, the way the shipped
// tools do: serve_tool's `serve --index F --engine auto --threads 2`, and
// read_mapper's FASTA-to-BatchSearcher path with the same `auto` engine on
// two workers. `auto` needs the bidirectional index beside the forward one;
// a change to how indexes are handed to the engines touches this file only.

#ifndef KMBENCH_ENGINE_H_
#define KMBENCH_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bidir/bi_fm_index.h"
#include "host_speed.h"
#include "obs/trace.h"
#include "search/batch_searcher.h"
#include "serve/server.h"
#include "serve/session.h"
#include "stats.h"
#include "util/status.h"

namespace kmbench {

/// Engine workers of every workload (serve_tool's and the pool's size).
inline constexpr int kWorkers = 2;

/// Wall time of the three steps of one set-up, in seconds.
struct SetupTimes {
  double load_s = 0;   ///< index file load, or FASTA parse
  double index_s = 0;  ///< reverse half from the forward index, or full build
  double start_s = 0;  ///< Session + Server::Start, or BatchSearcher
  double total() const { return load_s + index_s + start_s; }
};

/// Step names of one set-up path, as span names (string literals).
using SetupSpanNames = std::array<const char*, 3>;

/// Records one set-up that began at `begin_ns` as a trace of three
/// consecutive spans. No-op with a null log.
void RecordSetupSpans(uint64_t trace_id, uint64_t begin_ns,
                      const SetupTimes& times, const SetupSpanNames& names,
                      bwtk::obs::TraceSink* log);

/// BatchOptions for the `auto` engine over `index` on kWorkers workers.
bwtk::BatchOptions AutoOptions(const bwtk::BiFmIndex& index,
                               double trace_sample_rate = 0);

/// serve_tool's stack. Members are destroyed server first, index last.
struct ServedStack {
  std::unique_ptr<bwtk::BiFmIndex> index;
  std::unique_ptr<bwtk::serve::Session> session;
  std::unique_ptr<bwtk::serve::Server> server;
};

/// Index file on disk → server accepting on a loopback port:
/// FmIndex::LoadFromFile, BiFmIndex::FromForward, Session, Server::Start.
bwtk::Result<ServedStack> StartServed(const std::string& index_path,
                                      SetupTimes* times);

/// read_mapper's stack.
struct BatchStack {
  std::unique_ptr<bwtk::BiFmIndex> index;
  std::unique_ptr<bwtk::BatchSearcher> searcher;
};

/// Genome FASTA on disk → BatchSearcher ready: ReadFastaFile,
/// BiFmIndex::Build, BatchSearcher.
bwtk::Result<BatchStack> StartBatch(const std::string& fasta_path,
                                    SetupTimes* times);

/// A run's set-ups: the median total at the reference host speed (the
/// end-to-end setup_s), as measured, each step's median as measured, and
/// the host-speed readings taken between them.
struct SetupSummary {
  double setup_s = 0;
  double measured_s = 0;
  SetupTimes steps;
  std::vector<double> host_speeds;
};

/// Sets the program up `repeats` times with `start` (SetupTimes* →
/// Result<Stack>), tearing the previous stack down first, and keeps the
/// last stack in `*stack`. Reads the host speed on one thread, as a set-up
/// runs, before each set-up and after the last, and records each set-up as
/// spans (no-op with a null log).
template <typename Stack, typename Start>
bwtk::Status SetUp(int repeats, Start start, const SetupSpanNames& names,
                   HostSpeedProbe& probe, bwtk::obs::TraceSink* spans,
                   std::optional<Stack>* stack, SetupSummary* summary) {
  std::vector<double> total, load, index, started;
  for (int i = 0; i < repeats; ++i) {
    stack->reset();
    summary->host_speeds.push_back(probe.Measure(1));
    SetupTimes times;
    const uint64_t begin = bwtk::obs::TraceClockNanos();
    bwtk::Result<Stack> result = start(&times);
    if (!result.ok()) return result.status();
    stack->emplace(std::move(result).value());
    RecordSetupSpans(i + 1, begin, times, names, spans);
    total.push_back(times.total());
    load.push_back(times.load_s);
    index.push_back(times.index_s);
    started.push_back(times.start_s);
  }
  summary->host_speeds.push_back(probe.Measure(1));
  summary->measured_s = Median(total);
  summary->setup_s =
      AtReferenceSpeed(summary->measured_s, Median(summary->host_speeds));
  summary->steps = {Median(load), Median(index), Median(started)};
  return bwtk::Status::OK();
}

}  // namespace kmbench

#endif  // KMBENCH_ENGINE_H_
