#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>

#include "baselines/naive_search.h"

namespace kmbench {

uint64_t HitsDigest(const Hits& hits) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(hits.size());
  for (const bwtk::Occurrence& hit : hits) {
    mix(hit.position);
    mix(static_cast<uint32_t>(hit.mismatches));
  }
  return h;
}

std::vector<size_t> SampleQueries(size_t num_queries, size_t count,
                                  uint64_t seed) {
  std::vector<size_t> all(num_queries);
  for (size_t i = 0; i < num_queries; ++i) all[i] = i;
  std::mt19937_64 rng(seed);
  count = std::min(count, num_queries);
  // Partial Fisher-Yates: the first `count` slots become the sample.
  for (size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng() % (num_queries - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<Hits> NaiveAnswers(const std::vector<bwtk::DnaCode>& text,
                               const std::vector<bwtk::BatchQuery>& queries,
                               int threads) {
  std::vector<Hits> answers(queries.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    const bwtk::NaiveSearch naive(&text);
    for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
      answers[i] = naive.Search(queries[i].pattern, queries[i].k);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(threads, 1); ++t) pool.emplace_back(work);
  for (std::thread& thread : pool) thread.join();
  return answers;
}

bwtk::Status CheckAgainstNaive(const std::vector<Hits>& naive,
                               const std::vector<Hits>& program,
                               const std::vector<size_t>& sample) {
  for (size_t i = 0; i < naive.size(); ++i) {
    if (i >= program.size() || program[i] != naive[i]) {
      return bwtk::Status::Corruption(
          "query " + std::to_string(sample[i]) + ": program returned " +
          std::to_string(i < program.size() ? program[i].size() : 0) +
          " hits, naive scanner " + std::to_string(naive[i].size()));
    }
  }
  return bwtk::Status::OK();
}

}  // namespace kmbench
