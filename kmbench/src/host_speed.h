// The host's speed, read with a fixed job timed beside the workload.
//
// On a shared virtual machine the same program runs up to twice as fast or
// as slow from one quarter hour to the next, as the neighbours' load
// changes, and set-up, batch throughput and served latency move together.
// The benchmark therefore times, between its measured steps, a job no
// change to the program can touch: k-mismatch backtracking over an
// FM-style rank table the benchmark builds itself (its own code, not the
// library's), on as many threads as the steps it stands for use — one
// beside the set-ups, kWorkers beside the timed phases. The median of a
// run's readings is the host's speed during the run, and the run's time
// figures are reported at a fixed reference speed: a duration d measured
// at speed v reads d × v / kReferenceSpeed, a rate r reads
// r × kReferenceSpeed / v.
//
// The job runs in a process of its own, forked before the program is set
// up, so that its table counts toward the program's peak RSS nowhere.

#ifndef KMBENCH_HOST_SPEED_H_
#define KMBENCH_HOST_SPEED_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace kmbench {

/// The probe's speed per thread, in thousand patterns per second, that
/// figures are reported at: about its median on the 4-vCPU KVM guest the
/// benchmark was introduced on, when that host was quiet.
inline constexpr double kReferenceSpeed = 5.8;

/// `seconds` measured at host speed `speed`, at the reference speed.
inline double AtReferenceSpeed(double seconds, double speed) {
  return speed > 0 ? seconds * speed / kReferenceSpeed : seconds;
}

/// A rate measured at host speed `speed`, at the reference speed.
inline double RateAtReferenceSpeed(double rate, double speed) {
  return speed > 0 ? rate * kReferenceSpeed / speed : rate;
}

class HostSpeedProbe {
 public:
  /// Forks the probe's process, which builds the table. Call it before
  /// this process starts any thread. Null when the fork fails.
  static std::unique_ptr<HostSpeedProbe> Start();

  /// Ends the probe's process and waits for it.
  ~HostSpeedProbe();
  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  /// Runs the job once on `threads` threads at once (a few tens of ms) and
  /// returns its speed per thread; 0 when the probe's process is gone.
  double Measure(int threads);

  /// The most CPU this process used while a reading ran, in CPUs: the
  /// program's threads should be idle then, and the reading is the host's.
  double max_busy_cpus() const { return max_busy_cpus_; }

 private:
  HostSpeedProbe() = default;

  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
  double max_busy_cpus_ = 0;
};

}  // namespace kmbench

#endif  // KMBENCH_HOST_SPEED_H_
