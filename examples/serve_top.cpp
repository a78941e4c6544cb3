// serve_top: a terminal dashboard for a live bwtk serving process.
//
// Polls the telemetry listener's /varz.json endpoint (see
// serve::HttpExpositionServer and docs/OBSERVABILITY.md "Live telemetry")
// and renders the serving picture an operator reaches for first: query
// rates and rolling latency quantiles per window, admission state, the
// reuse-tier hit rates, per-engine served counts, and the busiest client
// connections. No curses dependency — plain ANSI clear + redraw.
//
// Usage:
//   serve_top --port P [--host H] [--interval-ms T] [--once] [--top N]
//
//   --port P         telemetry port (serve_tool --http-port / port file)
//   --host H         telemetry host (default 127.0.0.1)
//   --interval-ms T  refresh period (default 1000)
//   --once           print a single snapshot without clearing and exit
//                    (scriptable; CI smoke uses this)
//   --top N          show the N busiest connections (default 5)

#include <arpa/inet.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bwtk.h"

namespace {

struct Flags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int interval_ms = 1000;
  bool once = false;
  size_t top = 5;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port P [--host H] [--interval-ms T] [--once] [--top N]\n"
      "\n"
      "Live dashboard over a bwtk serving process's /varz.json telemetry\n"
      "endpoint (serve_tool serve --http-port ...).\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--host") {
      const char* value = next("--host");
      if (value == nullptr) return false;
      flags->host = value;
    } else if (arg == "--port") {
      const char* value = next("--port");
      if (value == nullptr) return false;
      flags->port = static_cast<uint16_t>(std::atoi(value));
    } else if (arg == "--interval-ms") {
      const char* value = next("--interval-ms");
      if (value == nullptr) return false;
      flags->interval_ms = std::atoi(value);
    } else if (arg == "--once") {
      flags->once = true;
    } else if (arg == "--top") {
      const char* value = next("--top");
      if (value == nullptr) return false;
      flags->top = static_cast<size_t>(std::atoll(value));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return false;
    }
  }
  if (flags->port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return false;
  }
  if (flags->interval_ms <= 0) flags->interval_ms = 1000;
  return true;
}

// One blocking HTTP/1.1 GET; the exposition server closes after each
// response, so "read until EOF, split on the blank line" is the whole
// client.
bwtk::Result<std::string> HttpGet(const std::string& host, uint16_t port,
                                  const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return bwtk::Status::IoError("socket: " +
                                 std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    hostent* resolved = ::gethostbyname(host.c_str());
    if (resolved == nullptr || resolved->h_addr_list[0] == nullptr) {
      ::close(fd);
      return bwtk::Status::InvalidArgument("cannot resolve host: " + host);
    }
    std::memcpy(&addr.sin_addr, resolved->h_addr_list[0],
                sizeof(addr.sin_addr));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return bwtk::Status::IoError("connect " + host + ":" +
                                 std::to_string(port) + ": " + error);
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = ::send(fd, request.data() + written,
                             request.size() - written, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return bwtk::Status::IoError("send failed");
    }
    written += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return bwtk::Status::IoError("recv: " +
                                   std::string(std::strerror(errno)));
    }
    if (n == 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return bwtk::Status::Corruption("malformed HTTP response");
  }
  const size_t line_end = response.find("\r\n");
  const std::string_view status_line =
      std::string_view(response).substr(0, line_end);
  if (status_line.find(" 200 ") == std::string_view::npos) {
    return bwtk::Status::Unavailable("HTTP status: " +
                                     std::string(status_line));
  }
  return response.substr(head_end + 4);
}

double Rate(const bwtk::obs::JsonValue& varz, std::string_view window,
            std::string_view counter) {
  const bwtk::obs::JsonValue* value =
      varz.Get("windows", window, "rates", counter);
  return value == nullptr ? 0.0 : value->AsNumber();
}

uint64_t Uint(const bwtk::obs::JsonValue& varz,
              std::initializer_list<std::string_view> path) {
  const bwtk::obs::JsonValue* value = &varz;
  for (const std::string_view key : path) {
    value = value->Find(key);
    if (value == nullptr) return 0;
  }
  return value->AsUint();
}

std::string Millis(double nanos) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", nanos / 1e6);
  return buffer;
}

void Render(const bwtk::obs::JsonValue& varz, size_t top) {
  const bwtk::obs::JsonValue* ready = varz.Find("ready");
  const bwtk::obs::JsonValue* engine = varz.Find("engine");
  std::printf("bwtk serve_top — engine=%s  %s  (ticks=%llu resets=%llu)\n",
              engine != nullptr ? engine->string_value.c_str() : "?",
              ready != nullptr && ready->bool_value ? "READY" : "NOT READY",
              static_cast<unsigned long long>(varz.Find("ticks") != nullptr
                                                 ? varz.Find("ticks")->AsUint()
                                                 : 0),
              static_cast<unsigned long long>(
                  varz.Find("resets") != nullptr ? varz.Find("resets")->AsUint()
                                                 : 0));

  std::printf(
      "\nsession: queue=%llu running=%llu inflight=%llu "
      "submitted=%llu completed=%llu overloaded=%llu\n",
      static_cast<unsigned long long>(Uint(varz, {"session", "queue_depth"})),
      static_cast<unsigned long long>(Uint(varz, {"session", "running"})),
      static_cast<unsigned long long>(Uint(varz, {"session", "inflight"})),
      static_cast<unsigned long long>(Uint(varz, {"session", "submitted"})),
      static_cast<unsigned long long>(Uint(varz, {"session", "completed"})),
      static_cast<unsigned long long>(
          Uint(varz, {"session", "rejected_overloaded"})));

  // Rolling rates + latency per window: the tentpole view.
  std::printf("\n%-6s %12s %12s %12s %12s %12s\n", "window", "submit/s",
              "served/s", "p50 ms", "p95 ms", "p99 ms");
  for (const char* window : {"10s", "1m", "5m"}) {
    const bwtk::obs::JsonValue* latency =
        varz.Get("windows", window, "latency", "query_nanos");
    const double p50 =
        latency != nullptr ? latency->Get("p50") != nullptr
                                 ? latency->Get("p50")->AsNumber()
                                 : 0.0
                           : 0.0;
    const double p95 = latency != nullptr && latency->Get("p95") != nullptr
                           ? latency->Get("p95")->AsNumber()
                           : 0.0;
    const double p99 = latency != nullptr && latency->Get("p99") != nullptr
                           ? latency->Get("p99")->AsNumber()
                           : 0.0;
    std::printf("%-6s %12.1f %12.1f %12s %12s %12s\n", window,
                Rate(varz, window, "serve_submitted"),
                Rate(varz, window, "serve_completed"), Millis(p50).c_str(),
                Millis(p95).c_str(), Millis(p99).c_str());
  }

  // Reuse: cumulative hit counts + 1m rates.
  std::printf("\nreuse:  result_cache=%llu/%llu hit/miss  "
              "shard_shortcuts=%llu   (1m rates: %.1f %.1f)\n",
              static_cast<unsigned long long>(
                  Uint(varz, {"session", "result_cache_hits"})),
              static_cast<unsigned long long>(
                  Uint(varz, {"session", "result_cache_misses"})),
              static_cast<unsigned long long>(
                  Uint(varz, {"session", "shard_exact_shortcuts"})),
              Rate(varz, "1m", "result_cache_hits"),
              Rate(varz, "1m", "shard_exact_shortcuts"));

  // Per-engine served counts over 1m: every engine a ticket can resolve
  // to, i.e. every BatchEngine before kAuto (the last value, a picker that
  // never answers a ticket itself).
  std::printf("engines (1m served/s):");
  for (int e = 0; e < static_cast<int>(bwtk::BatchEngine::kAuto); ++e) {
    const std::string_view name =
        bwtk::BatchEngineName(static_cast<bwtk::BatchEngine>(e));
    std::printf(" %.*s=%.1f", static_cast<int>(name.size()), name.data(),
                Rate(varz, "1m", "serve_served_" + std::string(name)));
  }
  std::printf("\n");

  const bwtk::obs::JsonValue* connections = varz.Find("connections");
  if (connections != nullptr &&
      connections->kind == bwtk::obs::JsonValue::Kind::kArray) {
    std::vector<const bwtk::obs::JsonValue*> rows;
    rows.reserve(connections->array.size());
    for (const bwtk::obs::JsonValue& conn : connections->array) {
      rows.push_back(&conn);
    }
    std::sort(rows.begin(), rows.end(),
              [](const bwtk::obs::JsonValue* a, const bwtk::obs::JsonValue* b) {
                const auto queries = [](const bwtk::obs::JsonValue* conn) {
                  const bwtk::obs::JsonValue* q = conn->Find("queries");
                  return q == nullptr ? uint64_t{0} : q->AsUint();
                };
                return queries(a) > queries(b);
              });
    std::printf("\nconnections: %zu open (top %zu by queries)\n", rows.size(),
                std::min(top, rows.size()));
    std::printf("%6s %10s %10s %12s %12s %8s %8s\n", "id", "queries",
                "overload", "bytes_in", "bytes_out", "age s", "idle s");
    for (size_t i = 0; i < rows.size() && i < top; ++i) {
      const bwtk::obs::JsonValue& conn = *rows[i];
      const auto field = [&conn](std::string_view key) {
        const bwtk::obs::JsonValue* value = conn.Find(key);
        return value == nullptr ? uint64_t{0} : value->AsUint();
      };
      const auto seconds = [&conn](std::string_view key) {
        const bwtk::obs::JsonValue* value = conn.Find(key);
        return value == nullptr ? 0.0 : value->AsNumber();
      };
      std::printf("%6llu %10llu %10llu %12llu %12llu %8.1f %8.1f\n",
                  static_cast<unsigned long long>(field("id")),
                  static_cast<unsigned long long>(field("queries")),
                  static_cast<unsigned long long>(field("overloaded")),
                  static_cast<unsigned long long>(field("bytes_in")),
                  static_cast<unsigned long long>(field("bytes_out")),
                  seconds("age_seconds"), seconds("idle_seconds"));
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  for (;;) {
    auto body = HttpGet(flags.host, flags.port, "/varz.json");
    if (!body.ok()) {
      std::fprintf(stderr, "serve_top: %s\n",
                   body.status().ToString().c_str());
      if (flags.once) return 1;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(flags.interval_ms));
      continue;
    }
    auto varz = bwtk::obs::ParseJson(*body);
    if (!varz.ok()) {
      std::fprintf(stderr, "serve_top: bad /varz.json: %s\n",
                   varz.status().ToString().c_str());
      if (flags.once) return 1;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(flags.interval_ms));
      continue;
    }
    if (!flags.once) {
      std::printf("\x1b[H\x1b[2J");  // home + clear, full redraw each poll
    }
    Render(*varz, flags.top);
    if (flags.once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(flags.interval_ms));
  }
}
