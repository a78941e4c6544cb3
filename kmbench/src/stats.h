// Pure helpers of the benchmark: quantiles, the Poisson arrival schedule
// and the max_qps search rule. No I/O and no clocks, so the tests can pin
// their behaviour exactly.

#ifndef KMBENCH_STATS_H_
#define KMBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace kmbench {

/// Quantile `q` in [0, 1] of `values`, interpolating linearly between order
/// statistics (NumPy's default). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Arrival offsets in ns from the phase start of a Poisson process with
/// `rate_per_s` arrivals per second, cut at `duration_ns`. A pure function
/// of its arguments: the same seed gives the same schedule on every run and
/// every machine (exponential gaps by inversion of a mt19937_64 stream).
std::vector<uint64_t> PoissonSchedule(double rate_per_s, uint64_t duration_ns,
                                      uint64_t seed);

/// What one offered-rate step of the max_qps search observed.
struct StepResult {
  double p50_us = 0;
  double success_frac = 0;  ///< requests answered OK ÷ requests sent
  bool kept_pace = false;   ///< the backlog drained promptly after the step
};

/// The max_qps rule: p50 within 1 ms, at least 99% of the requests
/// answered OK, and completions keeping pace with sends.
inline constexpr double kP50LimitUs = 1000;
inline constexpr double kMinSuccess = 0.99;
bool MeetsLimit(const StepResult& step);

/// Offered rates of the max_qps search: trials stay in [floor, ceiling].
struct MaxQpsPlan {
  double start_qps = 0;
  double floor_qps = 0;
  double ceiling_qps = 0;
};

/// The max_qps search, one trial at a time so that trials can interleave
/// with the other phases of a run. A ladder climbs from start_qps by ×1.2
/// until a trial fails; from there a staircase steps down after each
/// failing trial and up after each passing one, halving its step (in log)
/// at every reversal down to 2%. It settles where a trial passes about half
/// the time: host stalls make single trials near the knee pass or fail at
/// random, and no one trial decides the result.
class MaxQpsSearch {
 public:
  explicit MaxQpsSearch(const MaxQpsPlan& plan);

  /// The offered rate of the next trial.
  double rate() const { return rate_; }

  /// Records the outcome of a trial at rate().
  void Record(bool passed);

  /// Geometric mean of the rates tried after the second reversal; before
  /// that, the highest passing rate (0 when none passed).
  double Estimate() const;

  int reversals() const { return reversals_; }

 private:
  MaxQpsPlan plan_;
  double rate_;
  double log_step_;
  int direction_ = 0;  // +1 after a pass, -1 after a fail, 0 before any
  int reversals_ = 0;
  double best_pass_ = 0;
  std::vector<double> settled_;
};

}  // namespace kmbench

#endif  // KMBENCH_STATS_H_
