#include "obs/trace.h"

#include <algorithm>
#include <utility>

namespace bwtk::obs {

namespace {

// Constant-initialized POD TLS: the access in ActiveTrace is a plain load,
// no dynamic-init guard.
thread_local Trace* g_active_trace = nullptr;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Min-heap by wall time: front is the least slow retained trace, i.e. the
// eviction candidate.
bool SlowerFirst(const Trace& a, const Trace& b) {
  return a.wall_ns > b.wall_ns;
}

void SortByTraceId(std::vector<Trace>* traces) {
  std::sort(traces->begin(), traces->end(),
            [](const Trace& a, const Trace& b) {
              return a.trace_id < b.trace_id;
            });
}

}  // namespace

Trace* ActiveTrace() { return g_active_trace; }

ScopedTraceActivation::ScopedTraceActivation(Trace* trace)
    : prev_(g_active_trace) {
  g_active_trace = trace;
}

ScopedTraceActivation::~ScopedTraceActivation() { g_active_trace = prev_; }

TraceSink::TraceSink(const TraceSinkOptions& options) : options_(options) {}

bool TraceSink::ShouldSample(uint64_t trace_id) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  const uint64_t h = Mix64(trace_id ^ options_.sample_seed);
  // h / 2^64 is uniform in [0, 1); compare against the rate.
  return static_cast<double>(h) * 0x1p-64 < options_.sample_rate;
}

void TraceSink::Offer(Trace&& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ++offered_;
  if (options_.slow_trace_count > 0) {
    if (slow_.size() < options_.slow_trace_count) {
      slow_.push_back(trace);  // copy: the move below may also want it
      std::push_heap(slow_.begin(), slow_.end(), SlowerFirst);
    } else if (trace.wall_ns > slow_.front().wall_ns) {
      std::pop_heap(slow_.begin(), slow_.end(), SlowerFirst);
      slow_.back() = trace;
      std::push_heap(slow_.begin(), slow_.end(), SlowerFirst);
    }
  }
  if (sampled_.size() < options_.max_sampled_traces) {
    sampled_.push_back(std::move(trace));
  } else {
    ++dropped_;
  }
}

void TraceSink::OfferAux(Trace&& trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aux_.size() < options_.max_sampled_traces) {
    aux_.push_back(std::move(trace));
  }
}

std::vector<Trace> TraceSink::SampledTraces() const {
  std::vector<Trace> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = sampled_;
  }
  SortByTraceId(&out);
  return out;
}

std::vector<Trace> TraceSink::SlowTraces() const {
  std::vector<Trace> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = slow_;
  }
  std::sort(out.begin(), out.end(), [](const Trace& a, const Trace& b) {
    return a.wall_ns != b.wall_ns ? a.wall_ns > b.wall_ns
                                  : a.trace_id < b.trace_id;
  });
  return out;
}

std::vector<Trace> TraceSink::AuxTraces() const {
  std::vector<Trace> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = aux_;
  }
  SortByTraceId(&out);
  return out;
}

uint64_t TraceSink::traces_offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

uint64_t TraceSink::traces_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sampled_.clear();
  slow_.clear();
  aux_.clear();
  offered_ = 0;
  dropped_ = 0;
}

bool BeginQueryTrace(const TraceSink* sink, uint64_t trace_id,
                     std::string_view engine, int32_t k,
                     size_t pattern_length, uint32_t thread_index,
                     uint32_t shard_id, Trace* trace) {
  if (sink == nullptr || !sink->ShouldSample(trace_id)) return false;
  *trace = Trace{};
  trace->trace_id = trace_id;
  trace->engine.assign(engine);
  trace->k = k;
  trace->thread_index = thread_index;
  trace->shard_id = shard_id;
  trace->pattern_length = pattern_length;
  trace->nodes_per_depth.reserve(pattern_length + 1);
  trace->begin_ns = TraceClockNanos();
  return true;
}

ScopedQueryTrace::ScopedQueryTrace(TraceSink* sink, uint64_t trace_id,
                                   std::string_view engine, int32_t k,
                                   size_t pattern_length,
                                   uint32_t thread_index, uint32_t shard_id) {
  if (!BeginQueryTrace(sink, trace_id, engine, k, pattern_length,
                       thread_index, shard_id, &trace_)) {
    return;
  }
  sink_ = sink;
  active_ = true;
  prev_ = g_active_trace;
  g_active_trace = &trace_;
}

void ScopedQueryTrace::Finish(uint64_t matches, const SearchStats& stats) {
  if (!active_) return;
  trace_.wall_ns = TraceClockNanos() - trace_.begin_ns;
  trace_.matches = matches;
  trace_.stats = stats;
  finished_ = true;
}

ScopedQueryTrace::~ScopedQueryTrace() {
  if (!active_) return;
  g_active_trace = prev_;
  if (!finished_) trace_.wall_ns = TraceClockNanos() - trace_.begin_ns;
  sink_->Offer(std::move(trace_));
}

}  // namespace bwtk::obs
