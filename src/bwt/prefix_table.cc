#include "bwt/prefix_table.h"

#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"

namespace bwtk {

namespace {

// One depth-first expansion over the S-tree below the top-level symbol c0,
// writing the depth-q intervals it reaches into their key slots. Empty
// intervals are pruned immediately (their whole subtree stays all-zero in
// the table), which bounds the work at O(min(4^d, n)) nodes per level.
void BuildSubtree(const OccTable& occ, const SaIndex* first_row, uint32_t q,
                  DnaCode c0, std::vector<uint64_t>* entries) {
  const SaIndex rows = static_cast<SaIndex>(occ.size());
  uint32_t lo_rank = 0;
  uint32_t hi_rank = 0;
  occ.RankPair(c0, 0, static_cast<size_t>(rows), &lo_rank, &hi_rank);
  const SaIndex root_lo = first_row[c0] + static_cast<SaIndex>(lo_rank);
  const SaIndex root_hi = first_row[c0] + static_cast<SaIndex>(hi_rank);
  if (root_lo >= root_hi) return;
  if (q == 1) {
    (*entries)[c0] = (static_cast<uint64_t>(static_cast<uint32_t>(root_lo))
                      << 32) |
                     static_cast<uint32_t>(root_hi);
    return;
  }

  struct Node {
    SaIndex lo;
    SaIndex hi;
    uint64_t key;
    uint32_t depth;
  };
  std::vector<Node> stack;
  stack.reserve(3 * q + 1);
  stack.push_back({root_lo, root_hi, c0, 1});
  uint32_t lo_ranks[kDnaAlphabetSize];
  uint32_t hi_ranks[kDnaAlphabetSize];
  while (!stack.empty()) {
    const Node node = stack.back();
    stack.pop_back();
    occ.RankAll(static_cast<size_t>(node.lo), lo_ranks);
    occ.RankAll(static_cast<size_t>(node.hi), hi_ranks);
    for (DnaCode c = 0; c < kDnaAlphabetSize; ++c) {
      const SaIndex lo = first_row[c] + static_cast<SaIndex>(lo_ranks[c]);
      const SaIndex hi = first_row[c] + static_cast<SaIndex>(hi_ranks[c]);
      if (lo >= hi) continue;
      const uint64_t key = (node.key << 2) | c;
      if (node.depth + 1 == q) {
        (*entries)[key] = (static_cast<uint64_t>(static_cast<uint32_t>(lo))
                           << 32) |
                          static_cast<uint32_t>(hi);
      } else {
        stack.push_back({lo, hi, key, node.depth + 1});
      }
    }
  }
}

}  // namespace

Result<PrefixIntervalTable> PrefixIntervalTable::Build(
    const OccTable& occ, const SaIndex* first_row, uint32_t q) {
  if (q == 0 || q > kMaxQ) {
    return Status::InvalidArgument(
        "prefix table q must be in [1, " + std::to_string(kMaxQ) + "], got " +
        std::to_string(q));
  }
  if (occ.size() == 0) {
    return Status::InvalidArgument("prefix table needs a built rank table");
  }
  BWTK_SCOPED_TIMER(kPhasePrefixTableBuild);
  PrefixIntervalTable table;
  table.q_ = q;
  table.entries_.assign(KeyCount(q), 0);

  // Big-endian keys give each top-level symbol its own contiguous quarter of
  // the table, so the four subtree builders never write the same slot.
  std::vector<std::thread> workers;
  workers.reserve(kDnaAlphabetSize - 1);
  for (DnaCode c0 = 1; c0 < kDnaAlphabetSize; ++c0) {
    workers.emplace_back(BuildSubtree, std::cref(occ), first_row, q, c0,
                         &table.entries_);
  }
  BuildSubtree(occ, first_row, q, 0, &table.entries_);
  for (std::thread& worker : workers) worker.join();
  return table;
}

Result<PrefixIntervalTable> PrefixIntervalTable::FromParts(
    uint32_t q, std::vector<uint64_t> entries, size_t text_size) {
  if (q == 0 || q > kMaxQ) {
    return Status::Corruption("prefix table q out of range: " +
                              std::to_string(q));
  }
  if (entries.size() != KeyCount(q)) {
    return Status::Corruption(
        "prefix table entry count mismatch: q=" + std::to_string(q) +
        " expects " + std::to_string(KeyCount(q)) + ", got " +
        std::to_string(entries.size()));
  }
  // Each length-q window of the text is one row of exactly one q-gram's
  // range, so the widths sum to the window count. Bounds are checked on the
  // raw 32-bit halves: an entry past the rows would index the rank table out
  // of range on the first lookup of its q-gram.
  const uint64_t rows = static_cast<uint64_t>(text_size) + 1;
  uint64_t width_sum = 0;
  for (const uint64_t entry : entries) {
    if (entry == 0) continue;
    const uint64_t lo = entry >> 32;
    const uint64_t hi = static_cast<uint32_t>(entry);
    if (lo >= hi || hi > rows) {
      return Status::Corruption("prefix table entry outside the index rows");
    }
    width_sum += hi - lo;
  }
  const uint64_t windows = text_size >= q ? text_size - q + 1 : 0;
  if (width_sum != windows) {
    return Status::Corruption(
        "prefix table ranges cover " + std::to_string(width_sum) +
        " rows, expected one per length-" + std::to_string(q) +
        " window: " + std::to_string(windows));
  }
  PrefixIntervalTable table;
  table.q_ = q;
  table.entries_ = std::move(entries);
  return table;
}

}  // namespace bwtk
