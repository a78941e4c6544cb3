// The benchmark's workloads and their inputs. `kmbench gen` writes one
// workload's inputs for a seed into a directory; `kmbench run` reads them
// back. The program under test sees only these files: a genome FASTA, a
// serialized index (served workload) and the queries. Beside them, gen
// writes what the checks need, so that the measured process holds neither
// the genome nor the answers: the naive scanner's answers to a seeded
// sample, and for the served workload the digest of every probe's answer
// from an untimed reference pass.

#ifndef KMBENCH_INPUTS_H_
#define KMBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "search/batch_searcher.h"
#include "search/match.h"
#include "util/status.h"

namespace kmbench {

/// Queries per run answered by the naive scanner.
inline constexpr size_t kOracleSample = 8;

/// Threads for untimed work (inputs, the naive oracle, the reference pass)
/// — every CPU of the host.
inline constexpr int kUntimedThreads = 4;

struct WorkloadSpec {
  std::string_view name;
  bool served;            ///< over serve::Server (else one BatchSearcher)
  size_t genome_length;   ///< synthetic genome, bp
  size_t query_length;    ///< wgsim-like reads/probes, nt
  size_t num_queries;     ///< distinct reads/probes generated
  int32_t k;              ///< mismatch budget of every query
  bool both_strands;      ///< each read is queried with its reverse complement
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Queries the workload's patterns make: one per probe, two per read on
/// both strands.
size_t QueryCount(const WorkloadSpec& spec);

/// Writes genome.fa, queries.txt (one ASCII pattern per line), naive.txt
/// (the oracle sample) and, for the served workload, index.fm
/// (FmIndex::SaveToFile, as index_tool writes), reference.bin (one
/// HitsDigest per probe, as uint64 in the host's byte order) and
/// properties.txt.
bwtk::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                            const std::string& dir);

std::string GenomePath(const std::string& dir);
std::string IndexPath(const std::string& dir);

/// The generated patterns, ASCII, all of one length, stored back to back
/// (the served pool holds hundreds of thousands).
struct PatternPool {
  std::string text;
  size_t length = 0;

  size_t size() const { return length == 0 ? 0 : text.size() / length; }
  std::string_view operator[](size_t i) const {
    return std::string_view(text).substr(i * length, length);
  }
};

/// Patterns [first, first + count) of the generated ones, in file order.
bwtk::Result<PatternPool> LoadPatterns(const WorkloadSpec& spec,
                                       const std::string& dir, size_t first,
                                       size_t count);

/// The queries the program answers for patterns[first, first + count): one
/// per pattern, or two per read (the read, then its reverse complement, as
/// read_mapper queries both strands).
bwtk::Result<std::vector<bwtk::BatchQuery>> MakeQueries(
    const WorkloadSpec& spec, const PatternPool& patterns, size_t first,
    size_t count);

/// Reference digests of probes [first, first + count) (served workload).
bwtk::Result<std::vector<uint64_t>> LoadReferenceDigests(
    const std::string& dir, size_t first, size_t count);

/// The reference pass's workload properties line (served workload).
bwtk::Result<std::string> LoadProperties(const std::string& dir);

/// The naive scanner's answers to a seeded sample of the queries.
struct NaiveSample {
  std::vector<size_t> queries;  ///< indices into the workload's queries
  std::vector<std::vector<bwtk::Occurrence>> answers;
};
bwtk::Result<NaiveSample> LoadNaiveSample(const std::string& dir);

}  // namespace kmbench

#endif  // KMBENCH_INPUTS_H_
