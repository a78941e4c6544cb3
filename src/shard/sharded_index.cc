#include "shard/sharded_index.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bwt/serialize.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace bwtk {

namespace {

// FNV-1a over the slice table, so a bit-rotted manifest is caught before
// any shard file is opened.
uint64_t HashWords(const std::vector<uint64_t>& words, uint64_t seed) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const uint64_t w : words) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<uint64_t> FlattenSlices(const ShardPlan& plan) {
  std::vector<uint64_t> words;
  words.reserve(plan.num_shards() * 3);
  for (const ShardSlice& s : plan.slices()) {
    words.push_back(s.core_begin);
    words.push_back(s.core_end);
    words.push_back(s.end);
  }
  return words;
}

int ResolveBuildThreads(int requested, size_t num_shards) {
  unsigned threads = requested > 0
                         ? static_cast<unsigned>(requested)
                         : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > num_shards) threads = static_cast<unsigned>(num_shards);
  return static_cast<int>(threads);
}

}  // namespace

std::string ShardFilePath(const std::string& prefix, size_t shard) {
  return prefix + ".shard-" + std::to_string(shard);
}

std::string ShardManifestPath(const std::string& prefix) {
  return prefix + ".manifest";
}

Result<ShardedIndex> ShardedIndex::Build(const std::vector<DnaCode>& text,
                                         const ShardedIndexOptions& options) {
  BWTK_ASSIGN_OR_RETURN(
      ShardPlan plan,
      ShardPlan::Make(text.size(), options.num_shards, options.overlap));
  const size_t num_shards = plan.num_shards();
  // Each slot is filled by exactly one worker; the first failure (by shard
  // number, for determinism) wins the error report.
  std::vector<std::optional<FmIndex>> built(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  std::atomic<size_t> cursor{0};
  auto build_worker = [&] {
    for (;;) {
      const size_t s = cursor.fetch_add(1, std::memory_order_relaxed);
      if (s >= num_shards) return;
      const ShardSlice& slice = plan.slice(s);
      const std::vector<DnaCode> piece(text.begin() + slice.core_begin,
                                       text.begin() + slice.end);
      Result<FmIndex> shard = FmIndex::Build(piece, options.index_options);
      if (shard.ok()) {
        built[s].emplace(std::move(shard).value());
      } else {
        statuses[s] = shard.status();
      }
    }
  };
  const int num_threads =
      ResolveBuildThreads(options.num_build_threads, num_shards);
  if (num_threads <= 1) {
    build_worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) workers.emplace_back(build_worker);
    for (std::thread& worker : workers) worker.join();
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (!statuses[s].ok()) {
      return Status(statuses[s].code(), "shard " + std::to_string(s) + ": " +
                                            statuses[s].message());
    }
  }
  ShardedIndex index;
  index.plan_ = std::move(plan);
  index.shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    index.shards_.push_back(std::move(*built[s]));
  }
  return index;
}

std::vector<const FmIndex*> ShardedIndex::ShardPointers() const {
  std::vector<const FmIndex*> pointers;
  pointers.reserve(shards_.size());
  for (const FmIndex& shard : shards_) pointers.push_back(&shard);
  return pointers;
}

size_t ShardedIndex::MemoryUsage() const {
  size_t total = 0;
  for (const FmIndex& shard : shards_) total += shard.MemoryUsage();
  return total;
}

Status ShardedIndex::Save(const std::string& prefix) const {
  const std::string manifest_path = ShardManifestPath(prefix);
  std::ofstream out(manifest_path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + manifest_path);
  }
  WritePod(out, ShardManifestFormat::kMagic);
  WritePod(out, ShardManifestFormat::kVersion);
  WritePod(out, static_cast<uint64_t>(plan_.text_size()));
  WritePod(out, static_cast<uint64_t>(plan_.num_shards()));
  WritePod(out, static_cast<uint64_t>(plan_.overlap()));
  const std::vector<uint64_t> slice_words = FlattenSlices(plan_);
  for (const uint64_t w : slice_words) WritePod(out, w);
  WritePod(out, HashWords(slice_words, plan_.text_size()));
  if (!out) return Status::IoError("shard manifest write failed");
  out.close();
  if (!out) return Status::IoError("shard manifest write failed");
  for (size_t s = 0; s < shards_.size(); ++s) {
    BWTK_RETURN_IF_ERROR(shards_[s].SaveToFile(ShardFilePath(prefix, s)));
  }
  return Status::OK();
}

Result<ShardedIndex> ShardedIndex::Load(const std::string& prefix) {
  const std::string manifest_path = ShardManifestPath(prefix);
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open shard manifest: " + manifest_path);
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(in, &magic) || magic != ShardManifestFormat::kMagic) {
    return Status::Corruption("bad magic: not a bwtk shard manifest");
  }
  if (!ReadPod(in, &version) ||
      version < ShardManifestFormat::kMinSupportedVersion ||
      version > ShardManifestFormat::kVersion) {
    return Status::Corruption("unsupported shard manifest version");
  }
  uint64_t text_size = 0;
  uint64_t num_shards = 0;
  uint64_t overlap = 0;
  if (!ReadPod(in, &text_size) || !ReadPod(in, &num_shards) ||
      !ReadPod(in, &overlap)) {
    return Status::Corruption("truncated shard manifest");
  }
  // Bound before allocating: a corrupt count must not drive a huge resize.
  if (num_shards == 0 || num_shards > text_size) {
    return Status::Corruption("inconsistent shard manifest geometry");
  }
  std::vector<uint64_t> slice_words(static_cast<size_t>(num_shards) * 3);
  for (uint64_t& w : slice_words) {
    if (!ReadPod(in, &w)) {
      return Status::Corruption("truncated shard manifest");
    }
  }
  uint64_t checksum = 0;
  if (!ReadPod(in, &checksum) ||
      checksum != HashWords(slice_words, text_size)) {
    return Status::Corruption("shard manifest checksum mismatch");
  }
  // The plan is a pure function of (text_size, num_shards, overlap); the
  // stored slice table must match the recomputation exactly, or the file
  // was produced by a different partitioning scheme.
  BWTK_ASSIGN_OR_RETURN(ShardPlan plan,
                        ShardPlan::Make(text_size, num_shards, overlap));
  if (FlattenSlices(plan) != slice_words) {
    return Status::Corruption("shard manifest slice table mismatch");
  }
  ShardedIndex index;
  index.shards_.reserve(plan.num_shards());
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    Result<FmIndex> shard = FmIndex::LoadFromFile(ShardFilePath(prefix, s));
    if (!shard.ok()) {
      return Status(shard.status().code(), "shard " + std::to_string(s) +
                                               ": " +
                                               shard.status().message());
    }
    if (shard.value().text_size() != plan.slice(s).size()) {
      return Status::Corruption(
          "shard " + std::to_string(s) +
          ": index size does not match its manifest slice");
    }
    index.shards_.push_back(std::move(shard).value());
  }
  index.plan_ = std::move(plan);
  return index;
}

}  // namespace bwtk
