// Algorithm A(L, r, k) — the paper's contribution (Section IV.C/D).
//
// Like the S-tree baseline, the search enumerates pairs <x, [α, β]> by
// backward-search steps over BWT(reverse(s)). Unlike it, three mechanisms
// avoid redundant work:
//
//  1. A hash table over pairs (here: rank ranges) detects every repeated
//     node. Its children are computed by search() exactly once; later
//     appearances at other pattern positions reuse them with zero rank
//     operations (paper, Algorithm A lines 4-9). Two appearances of one
//     pair are always at different levels (Lemma 1), i.e., aligned at
//     different pattern positions i != j.
//  2. Runs of the search tree with a single continuation are cached as
//     *chains* together with their mismatch array relative to the first
//     alignment i. When a chain is re-entered at alignment j, its mismatch
//     structure against r[j..] is derived by merging the stored array with
//     R_ij — the mismatch array between r[i..] and r[j..] (Proposition 1 /
//     the node-creation procedure) — in O(k) jumps instead of O(length)
//     character comparisons.
//  3. The mismatching tree D (mtree.h) records every explored or derived
//     path with match runs collapsed; its leaf count is the paper's n'.
//
// Where a stored chain is shorter than a new visit needs (the paper's
// i > j case, or a chain cut short by an exhausted budget), the walk
// resumes with real search() steps from the chain frontier — the
// "extension" step the paper sketches after Proposition 2.
//
// Instrumentation: each mechanism reports the quantity the paper's analysis
// is stated in. Mechanism 1 fills SearchStats::reused_nodes (hash hits,
// Algorithm A lines 4-9); mechanism 2 fills derived_runs and the
// `merge`/`ri_build` observability phases (Proposition 1 merges and R_ij
// construction, Section IV.D); mechanism 3 fills mtree_nodes/mtree_leaves —
// the n' of the O(kn' + n + m log m) bound and Table 2 (Section V). The
// enumeration itself fills stree_nodes/extend_calls (Section IV.B) and the
// `tree_traversal` phase timer. See match.h for the full field-by-field
// mapping and docs/OBSERVABILITY.md for the phase/counter catalog.

#ifndef BWTK_SEARCH_ALGORITHM_A_H_
#define BWTK_SEARCH_ALGORITHM_A_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "alphabet/dna.h"
#include "bwt/fm_index.h"
#include "search/match.h"

namespace bwtk {

/// Reusable per-thread workspace for AlgorithmA::Search.
///
/// One Search call needs an S-tree frame stack, the DAG memo with its range
/// hash table, the chain store, the R_ij cache, and the M-tree. A scratch
/// owns all of them and recycles their buffers across calls, so after a few
/// warm-up queries the search machinery performs no heap allocation per
/// query (the returned occurrence vector is the one unavoidable allocation).
/// This is what makes batched search cheap: BatchSearcher keeps one scratch
/// per worker thread.
///
/// A scratch is NOT thread-safe: it may serve at most one Search call at a
/// time. Distinct scratches are fully independent and may be used
/// concurrently against the same FmIndex.
class AlgorithmAScratch {
 public:
  AlgorithmAScratch();
  ~AlgorithmAScratch();
  AlgorithmAScratch(AlgorithmAScratch&&) noexcept;
  AlgorithmAScratch& operator=(AlgorithmAScratch&&) noexcept;

  /// Opaque buffer bundle, defined with the engine internals in
  /// algorithm_a.cc. Public only so the implementation file can name it;
  /// there is nothing callable here.
  struct Impl;

 private:
  friend class AlgorithmA;

  std::unique_ptr<Impl> impl_;
};

/// Configuration for Algorithm A; the reuse level is the ablation knob.
struct AlgorithmAOptions {
  enum class Reuse {
    /// No memoization at all: degenerates to the brute-force S-tree.
    kNone,
    /// Hash-table reuse of pair children only (mechanism 1).
    kInterval,
    /// Full Algorithm A: interval reuse + chain derivation (1 + 2).
    kFull,
  };
  Reuse reuse = Reuse::kFull;

  /// Also apply the τ(i) cut-off of the BWT baseline. The paper's Algorithm
  /// A pseudo-code does not include it, but the bound is sound for any
  /// S-tree enumeration and composes with the reuse machinery; leaving it
  /// off reproduces the paper's M-tree sizes exactly (Table 2), leaving it
  /// on is what a production deployment would run. Default on.
  bool use_tau = true;
};

/// The paper's Algorithm A over an FM-index.
class AlgorithmA {
 public:
  /// `index` must outlive the searcher.
  explicit AlgorithmA(const FmIndex* index) : index_(index) {}
  AlgorithmA(const FmIndex* index, const AlgorithmAOptions& options)
      : index_(index), options_(options) {}

  /// All occurrences of `pattern` with at most `k` mismatches, sorted by
  /// position. `stats`, if given, receives instrumentation counters
  /// (including the M-tree leaf count n').
  ///
  /// Thread safety: const and self-contained — any number of threads may
  /// call Search concurrently on one AlgorithmA over one shared FmIndex.
  std::vector<Occurrence> Search(const std::vector<DnaCode>& pattern,
                                 int32_t k,
                                 SearchStats* stats = nullptr) const;

  /// As above, but runs inside `scratch`, reusing its buffers instead of
  /// allocating fresh ones. `scratch` must not be shared between concurrent
  /// calls; results are identical to the scratch-less overload.
  std::vector<Occurrence> Search(const std::vector<DnaCode>& pattern,
                                 int32_t k, SearchStats* stats,
                                 AlgorithmAScratch* scratch) const;

  const FmIndex& index() const { return *index_; }

 private:
  const FmIndex* index_;  // not owned
  AlgorithmAOptions options_;
};

}  // namespace bwtk

#endif  // BWTK_SEARCH_ALGORITHM_A_H_
