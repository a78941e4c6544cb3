#include "host_speed.h"

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>

namespace kmbench {
namespace {

// 16 Mi symbols in blocks of 64: the counts before the block, then the
// block's symbols, two bits each (8 MiB in all).
constexpr size_t kSymbols = size_t{1} << 24;
constexpr int kPatternLength = 24;
constexpr int kBudget = 2;
constexpr int kPatternsPerThread = 300;
constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;

struct Block {
  uint32_t count[4];
  uint64_t symbols[2];
};

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += kMul);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Nanos(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return uint64_t(ts.tv_sec) * 1'000'000'000 + uint64_t(ts.tv_nsec);
}

// A random string of 2-bit symbols with rank support, read as the BWT of
// some text: k-mismatch backtracking walks it as an engine walks a genome's
// index.
class RankTable {
 public:
  RankTable() : blocks_(kSymbols / 64) {
    uint64_t state = 1;  // the same table on every run
    uint32_t running[4] = {0, 0, 0, 0};
    for (Block& block : blocks_) {
      for (int c = 0; c < 4; ++c) block.count[c] = running[c];
      for (uint64_t& word : block.symbols) {
        word = SplitMix(state);
        for (int i = 0; i < 32; ++i) ++running[(word >> (2 * i)) & 3];
      }
    }
    for (uint32_t c = 0, total = 0; c < 4; ++c) {
      first_[c] = total;
      total += running[c];
    }
  }

  // first[c] + occurrences of c before position i.
  uint32_t Lf(int c, uint32_t i) const {
    const Block& block = blocks_[i >> 6];
    const uint64_t fill = 0x5555555555555555ull * uint64_t(3 - c);
    uint32_t rank = block.count[c];
    const unsigned in_block = i & 63;
    for (unsigned w = 0; w < 2 && w * 32 < in_block; ++w) {
      const uint64_t x = block.symbols[w] ^ fill;  // 11 where symbol is c
      uint64_t match = x & (x >> 1) & 0x5555555555555555ull;
      const unsigned take = std::min(32u, in_block - w * 32);
      if (take < 32) match &= (uint64_t{1} << (2 * take)) - 1;
      rank += std::popcount(match);
    }
    return first_[c] + rank;
  }

  // Rows matched with at most `budget` mismatches, backtracking from the
  // pattern's last symbol.
  uint64_t Search(const uint8_t* pattern, int pos, uint32_t lo, uint32_t hi,
                  int budget) const {
    if (pos < 0) return hi - lo;
    uint64_t found = 0;
    for (int c = 0; c < 4; ++c) {
      const int cost = c != pattern[pos];
      if (cost > budget) continue;
      const uint32_t next_lo = Lf(c, lo), next_hi = Lf(c, hi);
      if (next_lo < next_hi) {
        found += Search(pattern, pos - 1, next_lo, next_hi, budget - cost);
      }
    }
    return found;
  }

 private:
  std::vector<Block> blocks_;
  uint32_t first_[4];
};

// One reading, in thousand patterns per second per thread: every thread
// searches its own fixed patterns.
double RunJob(const RankTable& table, int threads) {
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> pool;
  const uint64_t begin = Nanos(CLOCK_MONOTONIC);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&table, &sink, t] {
      uint64_t state = 1000 + t;
      uint8_t pattern[kPatternLength];
      uint64_t found = 0;
      for (int p = 0; p < kPatternsPerThread; ++p) {
        for (uint8_t& c : pattern) c = SplitMix(state) & 3;
        found += table.Search(pattern, kPatternLength - 1, 0, kSymbols - 1,
                              kBudget);
      }
      sink += found;
    });
  }
  for (std::thread& thread : pool) thread.join();
  const uint64_t wall = Nanos(CLOCK_MONOTONIC) - begin;
  return kPatternsPerThread * 1e6 / double(wall);
}

// The probe's process: one reading per request byte, which holds the thread
// count, until the pipe closes.
[[noreturn]] void Serve(int request_fd, int reply_fd) {
  const RankTable table;
  char threads;
  while (::read(request_fd, &threads, 1) == 1) {
    const double speed = RunJob(table, threads);
    if (::write(reply_fd, &speed, sizeof(speed)) != sizeof(speed)) break;
  }
  ::_exit(0);
}

}  // namespace

std::unique_ptr<HostSpeedProbe> HostSpeedProbe::Start() {
  int request[2], reply[2];
  if (::pipe(request) != 0) return nullptr;
  if (::pipe(reply) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(request[1]);
    ::close(reply[0]);
    Serve(request[0], reply[1]);
  }
  ::close(request[0]);
  ::close(reply[1]);
  if (pid < 0) {
    ::close(request[1]);
    ::close(reply[0]);
    return nullptr;
  }
  std::unique_ptr<HostSpeedProbe> probe(new HostSpeedProbe());
  probe->pid_ = pid;
  probe->request_fd_ = request[1];
  probe->reply_fd_ = reply[0];
  return probe;
}

HostSpeedProbe::~HostSpeedProbe() {
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double HostSpeedProbe::Measure(int threads) {
  const uint64_t cpu_before = Nanos(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t begin = Nanos(CLOCK_MONOTONIC);
  const char request = static_cast<char>(threads);
  double speed = 0;
  if (::write(request_fd_, &request, 1) != 1 ||
      ::read(reply_fd_, &speed, sizeof(speed)) != sizeof(speed)) {
    speed = 0;
  }
  const uint64_t wall = Nanos(CLOCK_MONOTONIC) - begin;
  const uint64_t cpu = Nanos(CLOCK_PROCESS_CPUTIME_ID) - cpu_before;
  if (wall > 0) {
    max_busy_cpus_ = std::max(max_busy_cpus_, double(cpu) / double(wall));
  }
  return speed;
}

}  // namespace kmbench
