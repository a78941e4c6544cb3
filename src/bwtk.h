// Umbrella header for the bwtk library: BWT arrays and mismatching trees
// for string matching with k mismatches (Chen & Wu, ICDE 2017).
//
// Typical use:
//
//   #include "bwtk.h"
//
//   auto searcher = bwtk::KMismatchSearcher::Build(genome_string).value();
//   auto hits = searcher.Search("acgtacgta", /*k=*/2).value();
//   for (const auto& hit : hits)
//     std::cout << hit.position << " (" << hit.mismatches << " mm)\n";
//
// Fine-grained headers remain available for benchmark and research use.

#ifndef BWTK_BWTK_H_
#define BWTK_BWTK_H_

#include "alphabet/dna.h"
#include "alphabet/fasta.h"
#include "alphabet/fastq.h"
#include "alphabet/packed_sequence.h"
#include "baselines/amir_search.h"
#include "baselines/cole_search.h"
#include "baselines/kangaroo_search.h"
#include "baselines/naive_search.h"
#include "bwt/fm_index.h"
#include "dict/demux.h"
#include "dict/pattern_set_trie.h"
#include "mismatch/mismatch_array.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "obs/windowed.h"
#include "search/algorithm_a.h"
#include "search/batch_searcher.h"
#include "search/kerror_search.h"
#include "search/match.h"
#include "search/searcher.h"
#include "search/stree_search.h"
#include "search/wildcard_search.h"
#include "serve/client.h"
#include "serve/http_exposition.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "shard/shard_plan.h"
#include "shard/sharded_index.h"
#include "shard/sharded_searcher.h"
#include "simulate/genome_generator.h"
#include "simulate/read_simulator.h"
#include "util/status.h"

#endif  // BWTK_BWTK_H_
