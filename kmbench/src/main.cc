// kmbench — the k-mismatch service benchmark (see kmbench/README.md).
//
//   kmbench gen --workload W --seed S --dir D
//       writes workload W's inputs for seed S into D;
//   kmbench run --workload W --seed S --seconds T --trace 0|1 --dir D
//               [--trace-out F]
//       sets the program up from D, measures for about T seconds and prints
//       the result JSON object as the last stdout line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kmbench gen --workload W --seed S --dir D\n"
               "       kmbench run --workload W --seed S --seconds T "
               "--trace 0|1 --dir D [--trace-out F]\n"
               "workloads: serve_probe, map_reads\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  kmbench::RunArgs args;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  args.spec = kmbench::FindWorkload(workload);
  if (args.spec == nullptr || args.dir.empty() || args.seconds < 1) {
    return Usage();
  }
  if (mode == "gen") {
    const bwtk::Status status =
        kmbench::GenerateInputs(*args.spec, args.seed, args.dir);
    if (!status.ok()) {
      std::fprintf(stderr, "kmbench: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "run") {
    return args.spec->served ? kmbench::RunServed(args)
                             : kmbench::RunBatch(args);
  }
  return Usage();
}
