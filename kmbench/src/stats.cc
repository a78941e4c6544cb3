#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace kmbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

std::vector<uint64_t> PoissonSchedule(double rate_per_s, uint64_t duration_ns,
                                      uint64_t seed) {
  std::vector<uint64_t> arrivals;
  if (rate_per_s <= 0) return arrivals;
  arrivals.reserve(static_cast<size_t>(rate_per_s * duration_ns * 1.1e-9) + 16);
  std::mt19937_64 rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0;
  for (;;) {
    // 53 random bits as u in [0, 1); 1 - u is in (0, 1], so log is finite.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) break;
    arrivals.push_back(static_cast<uint64_t>(t));
  }
  return arrivals;
}

bool MeetsLimit(const StepResult& step) {
  return step.kept_pace && step.success_frac >= kMinSuccess &&
         step.p50_us <= kP50LimitUs;
}

namespace {
constexpr double kLadderRatio = 1.2;
constexpr double kFinestRatio = 1.02;
constexpr int kSettleReversals = 2;
}  // namespace

MaxQpsSearch::MaxQpsSearch(const MaxQpsPlan& plan)
    : plan_(plan),
      rate_(std::clamp(plan.start_qps, plan.floor_qps, plan.ceiling_qps)),
      log_step_(std::log(kLadderRatio)) {}

void MaxQpsSearch::Record(bool passed) {
  if (reversals_ >= kSettleReversals) settled_.push_back(rate_);
  if (passed) best_pass_ = std::max(best_pass_, rate_);
  const int direction = passed ? 1 : -1;
  if (direction_ != 0 && direction != direction_) {
    ++reversals_;
    log_step_ = std::max(log_step_ / 2, std::log(kFinestRatio));
  }
  direction_ = direction;
  rate_ = std::clamp(rate_ * std::exp(direction * log_step_), plan_.floor_qps,
                     plan_.ceiling_qps);
}

double MaxQpsSearch::Estimate() const {
  if (settled_.empty()) return best_pass_;
  double log_sum = 0;
  for (const double rate : settled_) log_sum += std::log(rate);
  return std::exp(log_sum / settled_.size());
}

}  // namespace kmbench
