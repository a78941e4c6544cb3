// The two workload runners behind `kmbench run`: the served one
// (serve_probe) and the batch one (map_reads). Each sets the program up
// from the generated files, gates it against the naive oracle's answers,
// measures with host-speed readings between the measured steps, checks
// every timed answer, and prints the report.

#ifndef KMBENCH_WORKLOADS_H_
#define KMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "inputs.h"

namespace kmbench {

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  int seconds = 10;         ///< measured time of the run
  bool trace = false;       ///< per-layer (traced) run instead of end-to-end
  std::string dir;          ///< the generated inputs
  std::string trace_out;    ///< Chrome-trace file of the traced run
};

/// Exit code of the run; the result line is printed either way, without
/// metrics when the oracle gate fails.
int RunServed(const RunArgs& args);
int RunBatch(const RunArgs& args);

}  // namespace kmbench

#endif  // KMBENCH_WORKLOADS_H_
