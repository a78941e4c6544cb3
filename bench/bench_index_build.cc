// Index construction costs (Sections II/III): BWT index vs suffix tree.
// The paper cites 12-17 bytes/char for suffix trees against 0.5-2 for the
// BWT ("the file size of chromosome 1 ... its suffix tree is of 26 Gb in
// size while its BWT needs only 390 Mb - 1 Gb"). This bench regenerates
// that comparison: per genome size we time SA-IS, the BWT derivation, the
// full FM-index build, the bidirectional build (both halves at once, then
// the two seed tables, whose share the column shows) and the Ukkonen suffix
// tree, and report both footprints, the sort's peak heap per base, plus the
// serialization round-trip.

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>

#include "bench_common.h"
#include "bidir/bi_fm_index.h"
#include "bwt/bwt.h"
#include "bwt/fm_index.h"
#include "obs/metrics.h"
#include "suffix/suffix_array.h"
#include "suffix/suffix_tree.h"
#include "util/stopwatch.h"

namespace {

// Live and peak heap bytes, kept by the replacement allocation functions
// below so the table can report what a build holds at its peak.
std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const size_t bytes = malloc_usable_size(p);
  const size_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace bwtk::bench {
namespace {

int Run() {
  PrintBanner("Index construction: BWT/FM-index vs suffix tree",
              "three genome sizes, 30% repeats");

  TablePrinter table({"genome (bp)", "SA-IS", "SA-IS peak B/base",
                      "FM build", "BiFM build", "FM B/base", "suffix tree",
                      "ST B/base", "ST:FM", "save+load"});
  for (const size_t base : {512u << 10, 2u << 20, 8u << 20}) {
    const size_t genome_size = Scaled(base);
    const auto genome = MakeGenome(genome_size);

    // The peak counts everything the sort holds at once, its output
    // included, above what was live before it started.
    const size_t heap_before = g_live_bytes.load();
    g_peak_bytes.store(heap_before);
    Stopwatch watch;
    auto sa = BuildSuffixArrayDna(genome).value();
    const double sa_seconds = watch.ElapsedSeconds();
    const size_t sa_peak = g_peak_bytes.load() - heap_before;
    sa = {};

    watch.Restart();
    const auto index = FmIndex::Build(genome).value();
    const double fm_seconds = watch.ElapsedSeconds();

    const obs::MetricsBlock before_bidir =
        obs::MetricsRegistry::Instance().Snapshot();
    watch.Restart();
    const auto bidir = BiFmIndex::Build(genome).value();
    const double bi_seconds = watch.ElapsedSeconds();
    const double table_seconds =
        obs::Diff(obs::MetricsRegistry::Instance().Snapshot(), before_bidir)
            .phase_nanos[obs::kPhasePrefixTableBuild] *
        1e-9;

    watch.Restart();
    const auto tree = SuffixTree::Build(genome).value();
    const double st_seconds = watch.ElapsedSeconds();

    watch.Restart();
    std::stringstream buffer;
    (void)index.Save(buffer);
    const auto reloaded = FmIndex::Load(buffer).value();
    const double io_seconds = watch.ElapsedSeconds();

    char sa_bpb[16];
    char fm_bpb[16];
    char st_bpb[16];
    char ratio[16];
    std::snprintf(sa_bpb, sizeof(sa_bpb), "%.2f",
                  static_cast<double>(sa_peak) / genome_size);
    std::snprintf(fm_bpb, sizeof(fm_bpb), "%.2f",
                  static_cast<double>(index.MemoryUsage()) / genome_size);
    std::snprintf(st_bpb, sizeof(st_bpb), "%.1f",
                  static_cast<double>(tree.MemoryUsage()) / genome_size);
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  static_cast<double>(tree.MemoryUsage()) /
                      index.MemoryUsage());
    table.AddRow({FormatCount(genome_size), FormatSeconds(sa_seconds), sa_bpb,
                  FormatSeconds(fm_seconds),
                  FormatSeconds(bi_seconds) + " (tables " +
                      FormatSeconds(table_seconds) + ")",
                  fm_bpb, FormatSeconds(st_seconds), st_bpb, ratio,
                  FormatSeconds(io_seconds)});
    if (reloaded.text_size() != genome_size) std::printf("reload mismatch!\n");
    if (bidir.text_size() != genome_size) std::printf("bidir size mismatch!\n");
  }
  table.Print();
  std::printf("(FM build includes reversal + SA-IS + BWT + rankall + SA "
              "samples; BiFM build runs the two halves on two threads, then "
              "builds both seed tables: the prefix_table_build phase, 0 when "
              "metrics are compiled out)\n");
  return 0;
}

}  // namespace
}  // namespace bwtk::bench

int main() { return bwtk::bench::Run(); }
