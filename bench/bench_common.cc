#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/report.h"
#include "simulate/genome_generator.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace bwtk::bench {

double BenchScale() {
  const char* env = std::getenv("BWTK_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return std::clamp(value > 0 ? value : 1.0, 0.01, 1024.0);
}

size_t Scaled(size_t base_size) {
  const double scaled = static_cast<double>(base_size) * BenchScale();
  return std::max<size_t>(1 << 12, static_cast<size_t>(scaled));
}

std::vector<DnaCode> MakeGenome(size_t length, uint64_t seed) {
  GenomeOptions options;
  options.length = length;
  options.gc_content = 0.41;
  options.repeat_fraction = 0.3;
  options.seed = seed;
  auto genome = GenerateGenome(options);
  BWTK_CHECK(genome.ok()) << genome.status().ToString();
  return std::move(genome).value();
}

std::vector<std::vector<DnaCode>> MakeReads(const std::vector<DnaCode>& genome,
                                            size_t read_length,
                                            size_t read_count,
                                            uint64_t seed) {
  ReadSimOptions options;
  options.read_length = read_length;
  options.read_count = read_count;
  options.mutation_rate = 0.001;
  options.error_rate = 0.02;
  options.both_strands = false;
  options.seed = seed;
  auto reads = SimulateReads(genome, options);
  BWTK_CHECK(reads.ok()) << reads.status().ToString();
  std::vector<std::vector<DnaCode>> queries;
  queries.reserve(reads->size());
  for (auto& read : *reads) queries.push_back(std::move(read.sequence));
  return queries;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%c %-*s", c == 0 ? '|' : '|',
                  static_cast<int>(widths[c]), cell.c_str());
      std::printf(" ");
    }
    std::printf("|\n");
  };
  auto print_rule = [&] {
    for (const size_t w : widths) {
      std::printf("+%s", std::string(w + 2, '-').c_str());
    }
    std::printf("+\n");
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

std::string FormatSeconds(double seconds) {
  char buffer[64];
  if (seconds >= 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f us", seconds * 1e6);
  }
  return buffer;
}

std::string FormatMb(size_t bytes) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f MB", bytes / 1048576.0);
  return buffer;
}

std::string FormatCount(uint64_t value) {
  std::string raw = std::to_string(value);
  std::string out;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i > 0 && (raw.size() - i) % 3 == 0) out.push_back(',');
    out.push_back(raw[i]);
  }
  return out;
}

void PrintBanner(const std::string& title, const std::string& setup) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s  [BWTK_BENCH_SCALE=%.2f]\n", setup.c_str(), BenchScale());
  std::printf("==============================================================="
              "=\n");
}

std::string DescribeIndexConfig(const FmIndex& index) {
  return "kernel=" + std::string(index.rank_kernel_name()) +
         " prefix_q=" + std::to_string(index.prefix_table_q());
}

RankCost MeasureRank(const OccTable& occ, size_t iters) {
  const size_t rows = occ.size();
  RankCost cost;
  uint64_t sink = 0;

  Stopwatch watch;
  size_t pos = 1;
  for (size_t i = 0; i < iters; ++i) {
    sink += occ.Rank(static_cast<DnaCode>(i & 3), pos);
    pos = (pos * 2862933555777941757ULL + 3037000493ULL) % rows;
  }
  cost.rank_ns = watch.ElapsedSeconds() * 1e9 / static_cast<double>(iters);

  uint32_t ranks[kDnaAlphabetSize];
  watch.Restart();
  pos = 1;
  for (size_t i = 0; i < iters; ++i) {
    occ.RankAll(pos, ranks);
    sink += ranks[i & 3];
    pos = (pos * 2862933555777941757ULL + 3037000493ULL) % rows;
  }
  cost.rankall_ns = watch.ElapsedSeconds() * 1e9 / static_cast<double>(iters);

  if (sink == 0x5eed) std::printf(" ");  // defeat dead-code elimination
  return cost;
}

bool ParseReportFlags(
    int argc, char** argv, ReportFlags* flags,
    std::initializer_list<std::pair<const char*, int*>> int_flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      flags->smoke = true;
      continue;
    }
    if (arg == "--name" && has_value) {
      flags->name = argv[++i];
      continue;
    }
    if (arg == "--out" && has_value) {
      flags->out_dir = argv[++i];
      continue;
    }
    const auto own = std::find_if(
        int_flags.begin(), int_flags.end(),
        [&](const auto& flag) { return arg == flag.first; });
    if (own != int_flags.end() && has_value) {
      *own->second = std::atoi(argv[++i]);
      continue;
    }
    std::string usage = std::string("usage: ") + argv[0] +
                        " [--name NAME] [--out DIR] [--smoke]";
    for (const auto& flag : int_flags) {
      usage += std::string(" [") + flag.first + " N]";
    }
    std::fprintf(stderr, "%s\n", usage.c_str());
    return false;
  }
  return true;
}

BenchReport::BenchReport(std::string_view created_by, ReportFlags flags)
    : flags_(std::move(flags)) {
  json_.BeginObject()
      .Key("schema_version")
      .Value(2)
      .Key("name")
      .Value(flags_.name)
      .Key("created_by")
      .Value(created_by)
      .Key("smoke")
      .Value(flags_.smoke)
      .Key("scale")
      .Value(BenchScale())
      .Key("hardware")
      .BeginObject()
      .Key("hardware_concurrency")
      .Value(static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Key("metrics_compiled_in")
      .Value(BWTK_METRICS_ENABLED != 0)
      .Key("avx2_available")
      .Value(OccTable::Avx2Available())
      .EndObject()
      .Key("workloads")
      .BeginArray();
}

void BenchReport::CloseOpenObject() {
  if (object_open_) json_.EndObject();
  object_open_ = false;
}

obs::JsonWriter& BenchReport::AddWorkload(std::string_view name,
                                          uint64_t genome_length) {
  BWTK_CHECK(!in_runs_) << "workload " << name << " added after a run";
  CloseOpenObject();
  object_open_ = true;
  return json_.BeginObject()
      .Key("name")
      .Value(name)
      .Key("genome_length")
      .Value(genome_length);
}

obs::JsonWriter& BenchReport::AddRun(const RunKey& key, double wall_seconds,
                                     std::string_view rate_field,
                                     double operations) {
  CloseOpenObject();
  if (!in_runs_) json_.EndArray().Key("runs").BeginArray();
  in_runs_ = true;
  object_open_ = true;
  return json_.BeginObject()
      .Key("workload")
      .Value(key.workload)
      .Key("read_length")
      .Value(static_cast<uint64_t>(key.read_length))
      .Key("k")
      .Value(key.k)
      .Key("engine")
      .Value(key.engine)
      .Key("threads")
      .Value(key.threads)
      .Key("wall_seconds")
      .Value(wall_seconds)
      .Key(rate_field)
      .Value(wall_seconds > 0 ? operations / wall_seconds : 0.0);
}

obs::JsonWriter& BenchReport::AddRun(const RunKey& key, double wall_seconds,
                                     size_t reads, uint64_t total_hits,
                                     const SearchStats& stats) {
  obs::JsonWriter& json = AddRun(key, wall_seconds, "reads_per_second",
                                 static_cast<double>(reads));
  json.Key("total_hits").Value(total_hits).Key("stats");
  obs::AppendSearchStats(stats, &json);
  return json;
}

bool BenchReport::Write() && {
  CloseOpenObject();
  if (!in_runs_) json_.EndArray().Key("runs").BeginArray();
  json_.EndArray().EndObject();
  const std::string path =
      flags_.out_dir + "/BENCH_" + flags_.name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << std::move(json_).TakeString() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bwtk::bench
