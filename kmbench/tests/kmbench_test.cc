// Tests of the benchmark's own logic: the arrival schedule, open-loop
// latency accounting, the statistics behind the reported figures, the
// oracle gate, the inputs `kmbench gen` writes, and the host-speed probe.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "alphabet/dna.h"
#include "bidir/bi_fm_index.h"
#include "engine.h"
#include "host_speed.h"
#include "inputs.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "oracle.h"
#include "report.h"
#include "serve/server.h"
#include "serve/session.h"
#include "simulate/genome_generator.h"
#include "stats.h"

namespace kmbench {

using bwtk::obs::TraceClockNanos;
namespace {

TEST(PoissonSchedule, IsAPureFunctionOfTheSeed) {
  const auto a = PoissonSchedule(20000, 500'000'000, 7);
  const auto b = PoissonSchedule(20000, 500'000'000, 7);
  const auto c = PoissonSchedule(20000, 500'000'000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 500'000'000u);
  // 10000 arrivals expected; a Poisson count is within 5% of that with
  // overwhelming probability.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 3);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 2);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.99), 4.96);
  EXPECT_DOUBLE_EQ(Quantile(values, 0), 1);
  EXPECT_DOUBLE_EQ(Quantile(values, 1), 5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
}

// A synthetic M/M/1-like curve: p50 = 100 us / (1 - rate / 80000), so the
// 1 ms limit is met up to exactly 72000 queries/s.
StepResult SyntheticStep(double qps) {
  StepResult step;
  step.p50_us = qps >= 80000 ? 1e9 : 100 / (1 - qps / 80000);
  step.success_frac = 1;
  step.kept_pace = true;
  return step;
}

TEST(MaxQpsSearch, SettlesOnTheLimitOfASyntheticCurve) {
  MaxQpsPlan plan;
  plan.start_qps = 30000;
  plan.floor_qps = 15000;
  plan.ceiling_qps = 240000;
  MaxQpsSearch search(plan);
  for (int trial = 0; trial < 20; ++trial) {
    search.Record(MeetsLimit(SyntheticStep(search.rate())));
  }
  EXPECT_GE(search.reversals(), 2);
  // The staircase straddles 72000 with its finest step of 2%.
  EXPECT_NEAR(search.Estimate(), 72000, 72000 * 0.02);
}

TEST(MaxQpsSearch, FailedRequestsAndBacklogFailTheLimit) {
  StepResult step = SyntheticStep(20000);
  EXPECT_TRUE(MeetsLimit(step));
  step.success_frac = 0.98;
  EXPECT_FALSE(MeetsLimit(step));
  step = SyntheticStep(20000);
  step.kept_pace = false;
  EXPECT_FALSE(MeetsLimit(step));
}

TEST(MaxQpsSearch, ReportsZeroWhenNothingPasses) {
  MaxQpsPlan plan;
  plan.start_qps = 30000;
  plan.floor_qps = 15000;
  plan.ceiling_qps = 240000;
  MaxQpsSearch search(plan);
  for (int trial = 0; trial < 10; ++trial) search.Record(false);
  EXPECT_EQ(search.rate(), 15000);
  EXPECT_EQ(search.Estimate(), 0);
}

TEST(OracleGate, RejectsACorruptedAnswer) {
  bwtk::GenomeOptions options;
  options.length = 1 << 14;
  options.seed = 3;
  const std::vector<bwtk::DnaCode> text =
      bwtk::GenerateGenome(options).value();
  // Patterns cut from the text, so every one has at least one hit.
  std::vector<bwtk::BatchQuery> queries;
  for (size_t start : {100, 2000, 9000}) {
    queries.push_back({std::vector<bwtk::DnaCode>(
                           text.begin() + start, text.begin() + start + 24),
                       2});
  }
  const std::vector<size_t> ids = {0, 1, 2};
  const std::vector<Hits> naive = NaiveAnswers(text, queries, 2);
  ASSERT_FALSE(naive[1].empty());
  EXPECT_TRUE(CheckAgainstNaive(naive, naive, ids).ok());

  std::vector<Hits> moved = naive;
  moved[1][0].position += 1;
  EXPECT_FALSE(CheckAgainstNaive(naive, moved, ids).ok());
  EXPECT_NE(HitsDigest(moved[1]), HitsDigest(naive[1]));

  std::vector<Hits> dropped = naive;
  dropped[1].pop_back();
  EXPECT_FALSE(CheckAgainstNaive(naive, dropped, ids).ok());
  EXPECT_NE(HitsDigest(dropped[1]), HitsDigest(naive[1]));
}

TEST(SampleQueries, IsDistinctSortedAndSeeded) {
  const auto a = SampleQueries(1000, 8, 5);
  EXPECT_EQ(a, SampleQueries(1000, 8, 5));
  EXPECT_EQ(a.size(), 8u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
  EXPECT_EQ(SampleQueries(3, 8, 5).size(), 3u);
}

TEST(GeneratedInputs, ReferencePassAgreesWithTheNaiveSample) {
  const WorkloadSpec spec = {"tiny", true, 1 << 16, 32, 300, 2, false};
  const std::string dir = ::testing::TempDir() + "/kmbench_inputs_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(GenerateInputs(spec, 3, dir).ok());
  const auto all = LoadPatterns(spec, dir, 0, 300);
  const auto slice = LoadPatterns(spec, dir, 100, 20);
  ASSERT_TRUE(all.ok() && slice.ok());
  EXPECT_EQ(slice->text, all->text.substr(100 * 32, 20 * 32));
  EXPECT_FALSE(LoadPatterns(spec, dir, 290, 20).ok());  // past the end

  const auto naive = LoadNaiveSample(dir);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->queries, SampleQueries(300, kOracleSample, 3));
  const auto digests = LoadReferenceDigests(dir, 0, 300);
  ASSERT_TRUE(digests.ok());
  size_t with_hits = 0;
  for (size_t i = 0; i < naive->queries.size(); ++i) {
    EXPECT_EQ((*digests)[naive->queries[i]], HitsDigest(naive->answers[i]));
    with_hits += !naive->answers[i].empty();
  }
  EXPECT_GT(with_hits, 0u);
  EXPECT_FALSE(LoadReferenceDigests(dir, 290, 20).ok());
  std::filesystem::remove_all(dir);
}

TEST(BusyStealFrac, IsTheStolenShareOfBusyTime) {
  const CpuTimes before{.steal = 10, .idle = 100, .total = 1000};
  // 400 jiffies more, 200 of them idle, 20 of the 200 busy ones stolen.
  const CpuTimes after{.steal = 30, .idle = 300, .total = 1400};
  EXPECT_DOUBLE_EQ(BusyStealFrac(before, after), 0.1);
  EXPECT_DOUBLE_EQ(StealFrac(before, after), 0.05);
  EXPECT_DOUBLE_EQ(BusyStealFrac(after, after), 0);
}

TEST(HostSpeedProbe, ReadsPositiveSpeedsAndScalesToTheReference) {
  {
    const auto probe = HostSpeedProbe::Start();
    ASSERT_NE(probe, nullptr);
    EXPECT_GT(probe->Measure(1), 0);
    EXPECT_GT(probe->Measure(2), 0);
    EXPECT_LT(probe->max_busy_cpus(), 0.5);  // this process only waited
  }  // the probe's process has ended here
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, kReferenceSpeed), 3.0);
  // A host twice the reference speed: times read double, rates half.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, 2 * kReferenceSpeed), 6.0);
  EXPECT_DOUBLE_EQ(RateAtReferenceSpeed(1000, 2 * kReferenceSpeed), 500);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, 0), 3.0);  // no reading
}

// A real server over a small index, driven by the open-loop client.
class OpenLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bwtk::GenomeOptions options;
    options.length = 1 << 16;
    options.seed = 11;
    text_ = bwtk::GenerateGenome(options).value();
    index_ = std::make_unique<bwtk::BiFmIndex>(
        bwtk::BiFmIndex::Build(text_).value());
    bwtk::serve::SessionOptions session_options;
    session_options.num_threads = kWorkers;
    session_options.batch = AutoOptions(*index_);
    session_ = std::make_unique<bwtk::serve::Session>(&index_->forward(),
                                                      session_options);
    server_ = std::make_unique<bwtk::serve::Server>(session_.get());
    ASSERT_TRUE(server_->Start().ok());
    for (size_t i = 0; i < 64; ++i) {
      const size_t start = (i * 997) % (text_.size() - 32);
      patterns_.text += bwtk::DecodeDna(std::vector<bwtk::DnaCode>(
          text_.begin() + start, text_.begin() + start + 32));
    }
    patterns_.length = 32;
  }

  // 64 requests, 50 us apart, the first due `late_ns` before the client
  // starts: a sender held up by that much.
  PhaseOutcome RunLate(uint64_t late_ns) {
    auto client = OpenLoopClient::Connect(server_->port(), 2);
    EXPECT_TRUE(client.ok());
    std::vector<uint64_t> schedule;
    for (uint64_t i = 0; i < 64; ++i) schedule.push_back(i * 50'000);
    return (*client)->Run(schedule, TraceClockNanos() - late_ns, patterns_, 0,
                          1, /*want_stats=*/true, 2'000'000'000);
  }

  std::vector<bwtk::DnaCode> text_;
  std::unique_ptr<bwtk::BiFmIndex> index_;
  std::unique_ptr<bwtk::serve::Session> session_;
  std::unique_ptr<bwtk::serve::Server> server_;
  PatternPool patterns_;
};

TEST_F(OpenLoopTest, AnswersEveryRequestWithTheEngineHits) {
  const PhaseOutcome phase = RunLate(0);
  ASSERT_TRUE(phase.error.empty()) << phase.error;
  ASSERT_EQ(phase.requests.size(), 64u);
  std::vector<bwtk::BatchQuery> queries;
  for (size_t i = 0; i < 64; ++i) {
    queries.push_back({bwtk::EncodeDna(patterns_[i]).value(), 1});
  }
  const std::vector<Hits> naive = NaiveAnswers(text_, queries, 2);
  for (size_t i = 0; i < 64; ++i) {
    const RequestRecord& r = phase.requests[i];
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.digest, HitsDigest(naive[i])) << i;
    EXPECT_EQ(r.hits, naive[i].size()) << i;
    EXPECT_GE(r.sent_ns, r.scheduled_ns);
    EXPECT_GE(r.done_ns, r.sent_ns);
    EXPECT_GT(r.extend_calls, 0u);  // the stats trailer came back
  }
  EXPECT_EQ(phase.frames, 64u);
}

TEST_F(OpenLoopTest, LatencyCountsFromTheScheduledSendTime) {
  constexpr uint64_t kLateNs = 20'000'000;
  const PhaseOutcome on_time = RunLate(0);
  const PhaseOutcome late = RunLate(kLateNs);
  ASSERT_TRUE(on_time.error.empty() && late.error.empty());
  std::vector<double> on_time_us, late_us;
  for (size_t i = 0; i < 64; ++i) {
    const RequestRecord& r = late.requests[i];
    ASSERT_TRUE(r.ok() && on_time.requests[i].ok());
    // Due at most 3.2 ms after the late origin, sent after the client
    // started 20 ms past it: the wait counts, on the send and in latency.
    EXPECT_GE(r.sent_ns - r.scheduled_ns, kLateNs - 3'200'000);
    EXPECT_GE(r.latency_ns(), kLateNs - 3'200'000);
    late_us.push_back(r.latency_ns() * 1e-3);
    on_time_us.push_back(on_time.requests[i].latency_ns() * 1e-3);
  }
  EXPECT_LT(Median(on_time_us), 10'000);
  EXPECT_GT(Median(late_us), Median(on_time_us) + 10'000);
}

TEST_F(OpenLoopTest, HoldsRequestsAtTheServersInFlightCap) {
  // A server that admits 4 unanswered queries per connection, and 64
  // requests all due at once on one connection: the client holds the rest
  // until answers free a slot, so none is shed with kOverloaded.
  bwtk::serve::ServerOptions options;
  options.max_inflight_per_connection = 4;
  bwtk::serve::Server capped(session_.get(), options);
  ASSERT_TRUE(capped.Start().ok());
  auto client = OpenLoopClient::Connect(capped.port(), 1);
  ASSERT_TRUE(client.ok());
  const std::vector<uint64_t> schedule(64, 0);
  const PhaseOutcome phase = (*client)->Run(
      schedule, TraceClockNanos(), patterns_, 0, 1, false, 2'000'000'000);
  ASSERT_TRUE(phase.error.empty()) << phase.error;
  uint64_t last_sent = 0;
  for (size_t i = 0; i < 64; ++i) {
    const RequestRecord& r = phase.requests[i];
    EXPECT_TRUE(r.ok()) << i << " status " << static_cast<int>(r.status);
    last_sent = std::max(last_sent, r.sent_ns);
  }
  // The last requests went out only after earlier answers came back.
  EXPECT_GT(last_sent, phase.requests[0].done_ns);
  EXPECT_EQ(phase.frames, 64u);
}

}  // namespace
}  // namespace kmbench
