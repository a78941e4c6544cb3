#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "alphabet/dna.h"
#include "alphabet/fasta.h"
#include "bidir/bi_fm_index.h"
#include "bwt/fm_index.h"
#include "engine.h"
#include "oracle.h"
#include "simulate/genome_generator.h"
#include "simulate/read_simulator.h"

namespace kmbench {
namespace {

// Why each shape: see BENCHMARK.json. serve_probe's pool bounds the requests
// one run can send (every request carries a distinct probe); map_reads sizes
// one batch at a few tenths of a second on two workers.
constexpr WorkloadSpec kWorkloads[] = {
    {"serve_probe", true, 4u << 20, 32, 1600000, 2, false},
    {"map_reads", false, 16u << 20, 100, 5000, 3, true},
};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

size_t QueryCount(const WorkloadSpec& spec) {
  return spec.num_queries * (spec.both_strands ? 2 : 1);
}

std::string GenomePath(const std::string& dir) { return dir + "/genome.fa"; }
std::string IndexPath(const std::string& dir) { return dir + "/index.fm"; }
static std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.txt";
}
static std::string NaivePath(const std::string& dir) {
  return dir + "/naive.txt";
}
static std::string ReferencePath(const std::string& dir) {
  return dir + "/reference.bin";
}
static std::string PropertiesPath(const std::string& dir) {
  return dir + "/properties.txt";
}

namespace {

// The naive scanner's answers to the seeded sample, one line per query:
// its index, its hit count, then position and mismatches of each hit.
bwtk::Status WriteNaiveSample(const WorkloadSpec& spec, uint64_t seed,
                              const std::vector<bwtk::DnaCode>& genome,
                              const PatternPool& pool,
                              const std::string& dir) {
  const size_t per_pattern = spec.both_strands ? 2 : 1;
  const std::vector<size_t> sample =
      SampleQueries(QueryCount(spec), kOracleSample, seed);
  std::vector<bwtk::BatchQuery> queries;
  for (const size_t q : sample) {
    BWTK_ASSIGN_OR_RETURN(std::vector<bwtk::BatchQuery> made,
                          MakeQueries(spec, pool, q / per_pattern, 1));
    queries.push_back(std::move(made[q % per_pattern]));
  }
  const std::vector<Hits> answers =
      NaiveAnswers(genome, queries, kUntimedThreads);
  std::ofstream out(NaivePath(dir));
  for (size_t i = 0; i < sample.size(); ++i) {
    out << sample[i] << ' ' << answers[i].size();
    for (const bwtk::Occurrence& hit : answers[i]) {
      out << ' ' << hit.position << ' ' << hit.mismatches;
    }
    out << '\n';
  }
  out.close();
  if (!out) return bwtk::Status::IoError("cannot write " + NaivePath(dir));
  return bwtk::Status::OK();
}

// The served workload's reference pass: every probe answered by a
// BatchSearcher over the index the server loads, untimed, and the digest
// of each answer written in probe order. Also the answers' properties.
bwtk::Status WriteReference(const WorkloadSpec& spec, bwtk::FmIndex forward,
                            const PatternPool& pool, const std::string& dir) {
  BWTK_ASSIGN_OR_RETURN(bwtk::BiFmIndex index,
                        bwtk::BiFmIndex::FromForward(std::move(forward)));
  bwtk::BatchOptions options = AutoOptions(index);
  options.num_threads = kUntimedThreads;
  bwtk::BatchSearcher searcher(&index.forward(), options);
  std::ofstream digests(ReferencePath(dir), std::ios::binary);
  size_t with_hit = 0;
  uint64_t hits = 0, extend_calls = 0;
  constexpr size_t kChunk = 1 << 16;
  for (size_t first = 0; first < pool.size(); first += kChunk) {
    const size_t count = std::min(kChunk, pool.size() - first);
    BWTK_ASSIGN_OR_RETURN(const std::vector<bwtk::BatchQuery> queries,
                          MakeQueries(spec, pool, first, count));
    const bwtk::BatchResult result = searcher.Search(queries);
    for (const Hits& h : result.occurrences) {
      const uint64_t digest = HitsDigest(h);
      digests.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
      with_hit += !h.empty();
      hits += h.size();
    }
    extend_calls += result.stats.extend_calls;
  }
  digests.close();
  if (!digests) {
    return bwtk::Status::IoError("cannot write " + ReferencePath(dir));
  }
  const double n = static_cast<double>(pool.size());
  std::ofstream properties(PropertiesPath(dir));
  properties << "queries " << pool.size() << ", with >=1 hit " << with_hit / n
             << ", hits/query " << hits / n << ", extend_calls/query "
             << extend_calls / n << '\n';
  properties.close();
  if (!properties) {
    return bwtk::Status::IoError("cannot write " + PropertiesPath(dir));
  }
  return bwtk::Status::OK();
}

}  // namespace

bwtk::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                            const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return bwtk::Status::IoError("cannot create " + dir);

  bwtk::GenomeOptions genome_options;
  genome_options.length = spec.genome_length;
  genome_options.seed = seed;
  BWTK_ASSIGN_OR_RETURN(std::vector<bwtk::DnaCode> genome,
                        bwtk::GenerateGenome(genome_options));
  BWTK_RETURN_IF_ERROR(
      bwtk::WriteFastaFile(GenomePath(dir), {{"chr1", "", genome}}));

  // wgsim-like reads at the default error model; exact duplicates are
  // dropped so that no query of a run repeats another.
  bwtk::ReadSimOptions read_options;
  read_options.read_length = spec.query_length;
  read_options.read_count = spec.num_queries + spec.num_queries / 16 + 16;
  read_options.seed = seed * 0x9e3779b97f4a7c15ull + 1;
  BWTK_ASSIGN_OR_RETURN(const std::vector<bwtk::SimulatedRead> reads,
                        bwtk::SimulateReads(genome, read_options));
  std::unordered_set<std::string> seen;
  std::ofstream out(QueriesPath(dir));
  for (const bwtk::SimulatedRead& read : reads) {
    if (seen.size() == spec.num_queries) break;
    std::string text = bwtk::DecodeDna(read.sequence);
    if (seen.insert(text).second) out << text << '\n';
  }
  if (seen.size() < spec.num_queries) {
    return bwtk::Status::Internal("too many duplicate reads");
  }
  out.close();
  if (!out) return bwtk::Status::IoError("cannot write " + QueriesPath(dir));

  BWTK_ASSIGN_OR_RETURN(const PatternPool pool,
                        LoadPatterns(spec, dir, 0, spec.num_queries));
  BWTK_RETURN_IF_ERROR(WriteNaiveSample(spec, seed, genome, pool, dir));
  if (spec.served) {
    BWTK_ASSIGN_OR_RETURN(bwtk::FmIndex index, bwtk::FmIndex::Build(genome));
    BWTK_RETURN_IF_ERROR(index.SaveToFile(IndexPath(dir)));
    BWTK_RETURN_IF_ERROR(WriteReference(spec, std::move(index), pool, dir));
  }
  return bwtk::Status::OK();
}

bwtk::Result<PatternPool> LoadPatterns(const WorkloadSpec& spec,
                                       const std::string& dir, size_t first,
                                       size_t count) {
  std::ifstream in(QueriesPath(dir));
  if (!in) return bwtk::Status::IoError("cannot read " + QueriesPath(dir));
  PatternPool pool;
  pool.length = spec.query_length;
  pool.text.reserve(count * pool.length);
  // Every line is a pattern of the same length and its newline.
  in.seekg(static_cast<std::streamoff>(first * (pool.length + 1)));
  std::string line;
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return bwtk::Status::Corruption("fewer patterns than expected");
    }
    if (line.size() != pool.length) {
      return bwtk::Status::Corruption("pattern of unexpected length");
    }
    pool.text += line;
  }
  return pool;
}

bwtk::Result<std::vector<bwtk::BatchQuery>> MakeQueries(
    const WorkloadSpec& spec, const PatternPool& patterns, size_t first,
    size_t count) {
  std::vector<bwtk::BatchQuery> queries;
  queries.reserve(count * (spec.both_strands ? 2 : 1));
  for (size_t i = first; i < first + count; ++i) {
    BWTK_ASSIGN_OR_RETURN(std::vector<bwtk::DnaCode> codes,
                          bwtk::EncodeDna(patterns[i]));
    if (spec.both_strands) {
      queries.push_back({codes, spec.k});
      queries.push_back({bwtk::ReverseComplement(codes), spec.k});
    } else {
      queries.push_back({std::move(codes), spec.k});
    }
  }
  return queries;
}

bwtk::Result<std::vector<uint64_t>> LoadReferenceDigests(
    const std::string& dir, size_t first, size_t count) {
  std::ifstream in(ReferencePath(dir), std::ios::binary);
  if (!in) return bwtk::Status::IoError("cannot read " + ReferencePath(dir));
  std::vector<uint64_t> digests(count);
  in.seekg(static_cast<std::streamoff>(first * sizeof(uint64_t)));
  in.read(reinterpret_cast<char*>(digests.data()),
          static_cast<std::streamsize>(count * sizeof(uint64_t)));
  if (!in) return bwtk::Status::Corruption("fewer digests than probes");
  return digests;
}

bwtk::Result<std::string> LoadProperties(const std::string& dir) {
  std::ifstream in(PropertiesPath(dir));
  std::string line;
  if (!std::getline(in, line)) {
    return bwtk::Status::IoError("cannot read " + PropertiesPath(dir));
  }
  return line;
}

bwtk::Result<NaiveSample> LoadNaiveSample(const std::string& dir) {
  std::ifstream in(NaivePath(dir));
  if (!in) return bwtk::Status::IoError("cannot read " + NaivePath(dir));
  NaiveSample sample;
  size_t query = 0, count = 0;
  while (in >> query >> count) {
    Hits hits(count);
    for (bwtk::Occurrence& hit : hits) in >> hit.position >> hit.mismatches;
    sample.queries.push_back(query);
    sample.answers.push_back(std::move(hits));
  }
  if (!in.eof() || sample.queries.empty()) {
    return bwtk::Status::Corruption("malformed " + NaivePath(dir));
  }
  return sample;
}

}  // namespace kmbench
