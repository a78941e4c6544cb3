#include "engine.h"

#include "alphabet/fasta.h"
#include "bwt/fm_index.h"
#include "util/stopwatch.h"

namespace kmbench {

void RecordSetupSpans(uint64_t trace_id, uint64_t begin_ns,
                      const SetupTimes& times, const SetupSpanNames& names,
                      bwtk::obs::TraceSink* log) {
  if (log == nullptr) return;
  bwtk::obs::Trace trace;
  trace.trace_id = trace_id;
  trace.engine = "setup";
  trace.begin_ns = begin_ns;
  trace.wall_ns = static_cast<uint64_t>(times.total() * 1e9);
  const double seconds[3] = {times.load_s, times.index_s, times.start_s};
  uint64_t at = begin_ns;
  for (int i = 0; i < 3; ++i) {
    const uint64_t dur = static_cast<uint64_t>(seconds[i] * 1e9);
    trace.spans.push_back({names[i], at, dur, 0});
    at += dur;
  }
  log->Offer(std::move(trace));
}

bwtk::BatchOptions AutoOptions(const bwtk::BiFmIndex& index,
                               double trace_sample_rate) {
  bwtk::BatchOptions options;
  options.num_threads = kWorkers;
  options.engine = bwtk::BatchEngine::kAuto;
  options.bidir_indexes = {&index};
  options.trace_sample_rate = trace_sample_rate;
  return options;
}

bwtk::Result<ServedStack> StartServed(const std::string& index_path,
                                      SetupTimes* times) {
  ServedStack stack;
  bwtk::Stopwatch watch;
  BWTK_ASSIGN_OR_RETURN(bwtk::FmIndex forward,
                        bwtk::FmIndex::LoadFromFile(index_path));
  times->load_s = watch.ElapsedSeconds();
  watch.Restart();
  BWTK_ASSIGN_OR_RETURN(bwtk::BiFmIndex bidir,
                        bwtk::BiFmIndex::FromForward(std::move(forward)));
  stack.index = std::make_unique<bwtk::BiFmIndex>(std::move(bidir));
  times->index_s = watch.ElapsedSeconds();
  watch.Restart();
  // serve_tool's defaults: queue 1024, in-flight 4096, 256 per connection.
  bwtk::serve::SessionOptions session_options;
  session_options.num_threads = kWorkers;
  session_options.batch = AutoOptions(*stack.index);
  stack.session = std::make_unique<bwtk::serve::Session>(
      &stack.index->forward(), session_options);
  stack.server = std::make_unique<bwtk::serve::Server>(stack.session.get());
  BWTK_RETURN_IF_ERROR(stack.server->Start());
  times->start_s = watch.ElapsedSeconds();
  return stack;
}

bwtk::Result<BatchStack> StartBatch(const std::string& fasta_path,
                                    SetupTimes* times) {
  BatchStack stack;
  bwtk::Stopwatch watch;
  BWTK_ASSIGN_OR_RETURN(
      std::vector<bwtk::FastaRecord> records,
      bwtk::ReadFastaFile(fasta_path,
                          {.ambiguity = bwtk::AmbiguityPolicy::kReplaceWithA}));
  if (records.empty()) return bwtk::Status::Corruption("empty FASTA");
  times->load_s = watch.ElapsedSeconds();
  watch.Restart();
  BWTK_ASSIGN_OR_RETURN(bwtk::BiFmIndex bidir,
                        bwtk::BiFmIndex::Build(records[0].sequence));
  stack.index = std::make_unique<bwtk::BiFmIndex>(std::move(bidir));
  times->index_s = watch.ElapsedSeconds();
  watch.Restart();
  stack.searcher = std::make_unique<bwtk::BatchSearcher>(
      &stack.index->forward(), AutoOptions(*stack.index));
  times->start_s = watch.ElapsedSeconds();
  return stack;
}

}  // namespace kmbench
