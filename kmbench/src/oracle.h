// Correctness checks of the benchmark. Before anything is timed, a seeded
// sample of the workload's queries is answered by the naive scanner
// (baselines/naive_search) and the program must return the same hits byte
// for byte. Every timed answer is then compared with an untimed reference
// pass through a per-query digest.

#ifndef KMBENCH_ORACLE_H_
#define KMBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "alphabet/dna.h"
#include "search/batch_searcher.h"
#include "search/match.h"
#include "util/status.h"

namespace kmbench {

using Hits = std::vector<bwtk::Occurrence>;

/// FNV-1a over every (position, mismatches) pair, in order. Equal hit
/// lists give equal digests; any changed, added or dropped hit changes it
/// (up to 64-bit collisions).
uint64_t HitsDigest(const Hits& hits);

/// `count` distinct indices in [0, num_queries), drawn by `seed`, sorted.
std::vector<size_t> SampleQueries(size_t num_queries, size_t count,
                                  uint64_t seed);

/// The naive scanner's answer to each of `queries`, computed on up to
/// `threads` threads (the scan is O(text) per query).
std::vector<Hits> NaiveAnswers(const std::vector<bwtk::DnaCode>& text,
                               const std::vector<bwtk::BatchQuery>& queries,
                               int threads);

/// OK when `program[i]` equals `naive[i]` for every i; otherwise
/// kCorruption naming the first differing query (`sample[i]`, its index in
/// the workload).
bwtk::Status CheckAgainstNaive(const std::vector<Hits>& naive,
                               const std::vector<Hits>& program,
                               const std::vector<size_t>& sample);

}  // namespace kmbench

#endif  // KMBENCH_ORACLE_H_
