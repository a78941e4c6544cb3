#include "bidir/search_scheme.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace bwtk {

namespace {

// Number of ways to distribute <= k errors over p pieces: C(k+p, p),
// saturating at the validation cap.
uint64_t VectorSpaceSize(int32_t k, uint32_t p) {
  uint64_t count = 1;
  for (uint32_t i = 1; i <= p; ++i) {
    count = count * (static_cast<uint64_t>(k) + i) / i;
    if (count > SearchScheme::kValidationCap) return count;
  }
  return count;
}

// Invokes fn(vec) for every vector with sum(vec) <= budget.
template <typename Fn>
void ForEachVector(std::vector<int32_t>* vec, size_t piece, int32_t budget,
                   Fn&& fn) {
  if (piece == vec->size()) {
    fn(*vec);
    return;
  }
  for (int32_t e = 0; e <= budget; ++e) {
    (*vec)[piece] = e;
    ForEachVector(vec, piece + 1, budget - e, fn);
  }
}

bool ConnectedPermutation(const std::vector<uint8_t>& order, uint32_t p) {
  if (order.size() != p) return false;
  std::vector<bool> seen(p, false);
  uint8_t lo = order[0];
  uint8_t hi = order[0];
  if (order[0] >= p) return false;
  seen[order[0]] = true;
  for (size_t t = 1; t < order.size(); ++t) {
    const uint8_t piece = order[t];
    if (piece >= p || seen[piece]) return false;
    if (piece + 1 == lo) {
      lo = piece;
    } else if (piece == hi + 1) {
      hi = piece;
    } else {
      return false;
    }
    seen[piece] = true;
  }
  return true;
}

}  // namespace

bool SearchScheme::Admits(const SchemeSearch& search,
                          const std::vector<int32_t>& vec) {
  int32_t cumulative = 0;
  for (size_t t = 0; t < search.order.size(); ++t) {
    cumulative += vec[search.order[t]];
    if (cumulative < search.lower[t] || cumulative > search.upper[t]) {
      return false;
    }
  }
  return true;
}

Result<SearchScheme> SearchScheme::Create(int32_t k, uint32_t num_pieces,
                                          std::vector<SchemeSearch> searches) {
  if (k < 0) return Status::InvalidArgument("negative mismatch budget");
  if (num_pieces == 0) return Status::InvalidArgument("zero pieces");
  if (num_pieces > 64) return Status::InvalidArgument("too many pieces");
  if (searches.empty()) return Status::InvalidArgument("no searches");
  for (const SchemeSearch& search : searches) {
    if (search.lower.size() != num_pieces ||
        search.upper.size() != num_pieces) {
      return Status::InvalidArgument("bound vector length != num_pieces");
    }
    if (!ConnectedPermutation(search.order, num_pieces)) {
      return Status::InvalidArgument(
          "search order is not a connected permutation of the pieces");
    }
    for (uint32_t t = 0; t < num_pieces; ++t) {
      if (search.lower[t] > search.upper[t]) {
        return Status::InvalidArgument("lower bound exceeds upper bound");
      }
      if (search.upper[t] > k) {
        return Status::InvalidArgument("upper bound exceeds budget k");
      }
      if (t > 0 && (search.lower[t] < search.lower[t - 1] ||
                    search.upper[t] < search.upper[t - 1])) {
        return Status::InvalidArgument("bounds must be nondecreasing");
      }
    }
  }

  SearchScheme scheme;
  scheme.k_ = k;
  scheme.num_pieces_ = num_pieces;
  scheme.searches_ = std::move(searches);

  if (VectorSpaceSize(k, num_pieces) <= kValidationCap) {
    bool covering = true;
    bool disjoint = true;
    std::vector<int32_t> vec(num_pieces, 0);
    ForEachVector(&vec, 0, k, [&](const std::vector<int32_t>& v) {
      int admitted = 0;
      for (const SchemeSearch& search : scheme.searches_) {
        if (Admits(search, v)) ++admitted;
      }
      if (admitted == 0) covering = false;
      if (admitted > 1) disjoint = false;
    });
    if (!covering) {
      return Status::InvalidArgument(
          "scheme misses an error distribution: not covering");
    }
    scheme.vector_disjoint_ = disjoint;
  }
  return scheme;
}

SearchScheme SearchScheme::Trivial(int32_t k) {
  BWTK_CHECK(k >= 0);
  SchemeSearch search;
  search.order = {0};
  search.lower = {0};
  search.upper = {static_cast<uint16_t>(std::min(k, 65535))};
  auto scheme = Create(k, 1, {std::move(search)});
  BWTK_CHECK(scheme.ok());
  return std::move(scheme).value();
}

SearchScheme SearchScheme::ForBudget(int32_t k) {
  BWTK_CHECK(k >= 0);
  // The k <= 4 tables were found by exact cover over the error-vector
  // space (disjoint partition, minimal search count, mismatch-poor early
  // bounds) and are re-proven covering + disjoint by Create here.
  std::vector<SchemeSearch> searches;
  uint32_t pieces = 0;
  switch (k) {
    case 0:
      return Trivial(0);
    case 1:
      pieces = 2;
      searches = {
          {{0, 1}, {0, 0}, {0, 1}},
          {{1, 0}, {0, 1}, {0, 1}},
      };
      break;
    case 2:
      pieces = 3;
      searches = {
          {{0, 1, 2}, {0, 0, 2}, {0, 1, 2}},
          {{2, 1, 0}, {0, 0, 0}, {0, 2, 2}},
          {{1, 2, 0}, {0, 1, 1}, {0, 1, 2}},
      };
      break;
    case 3:
      pieces = 4;
      searches = {
          {{0, 1, 2, 3}, {0, 0, 0, 3}, {0, 2, 3, 3}},
          {{1, 2, 3, 0}, {0, 0, 0, 0}, {1, 2, 2, 3}},
          {{2, 3, 1, 0}, {0, 0, 2, 2}, {0, 0, 3, 3}},
      };
      break;
    case 4:
      pieces = 5;
      searches = {
          {{0, 1, 2, 3, 4}, {0, 0, 0, 0, 3}, {0, 0, 4, 4, 4}},
          {{0, 1, 2, 3, 4}, {0, 1, 1, 1, 4}, {1, 1, 4, 4, 4}},
          {{2, 3, 4, 1, 0}, {0, 0, 0, 0, 0}, {1, 1, 2, 4, 4}},
          {{4, 3, 2, 1, 0}, {0, 0, 2, 2, 2}, {0, 2, 2, 4, 4}},
      };
      break;
    default: {
      // Pigeonhole fallback: k+1 pieces; search j pins piece j exact, then
      // expands right to the end, then left. Any distribution of <= k
      // errors leaves some piece error-free, so the union covers; vectors
      // with several error-free pieces are admitted several times, so the
      // executor deduplicates (vector_disjoint() is false).
      pieces = static_cast<uint32_t>(k) + 1;
      const uint16_t cap = static_cast<uint16_t>(std::min(k, 65535));
      for (uint32_t j = 0; j < pieces; ++j) {
        SchemeSearch search;
        for (uint32_t piece = j; piece < pieces; ++piece) {
          search.order.push_back(static_cast<uint8_t>(piece));
        }
        for (uint32_t piece = j; piece-- > 0;) {
          search.order.push_back(static_cast<uint8_t>(piece));
        }
        search.lower.assign(pieces, 0);
        search.upper.assign(pieces, cap);
        search.upper[0] = 0;
        searches.push_back(std::move(search));
      }
      break;
    }
  }
  auto scheme = Create(k, pieces, std::move(searches));
  BWTK_CHECK(scheme.ok());
  BWTK_DCHECK(k > 4 || scheme->vector_disjoint());
  return std::move(scheme).value();
}

std::vector<uint32_t> SearchScheme::PieceBoundaries(uint32_t m, uint32_t p) {
  std::vector<uint32_t> boundaries;
  PieceBoundaries(m, p, &boundaries);
  return boundaries;
}

void SearchScheme::PieceBoundaries(uint32_t m, uint32_t p,
                                   std::vector<uint32_t>* out) {
  BWTK_CHECK(p >= 1 && p <= m);
  out->resize(p + 1);
  for (uint32_t i = 0; i <= p; ++i) {
    (*out)[i] = static_cast<uint32_t>((static_cast<uint64_t>(i) * m) / p);
  }
}

}  // namespace bwtk
