// serve_tool — the always-on query service from the command line: run the
// TCP front-end over a long-lived serve::Session, query it, and check it
// against direct engine output. Protocol and operator runbook are in
// docs/SERVING.md.
//
//   $ ./serve_tool serve --genome 1048576 --port-file /tmp/port &
//   $ ./serve_tool query 127.0.0.1 $(cat /tmp/port) acgtacgt 2
//   $ ./serve_tool query 127.0.0.1 $(cat /tmp/port) acgtacgt 2 stree
//   $ ./serve_tool batch 127.0.0.1 $(cat /tmp/port) patterns.txt 2
//   $ ./serve_tool stats 127.0.0.1 $(cat /tmp/port)
//   $ kill -TERM %1           # graceful drain, then exit
//
//   $ ./serve_tool local patterns.txt 2 --genome 1048576
//   # same output format as `batch` — diff them to prove the served
//   # results are byte-identical to the direct engine (CI does exactly
//   # this; see .github/workflows/ci.yml, serve-smoke).
//
// The synthetic-genome flags (--genome LENGTH --seed S) make server and
// local runs reproducible without an index file; --index loads a
// serialized FM-index instead.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bwtk.h"

namespace {

volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

struct Flags {
  size_t genome_length = 1 << 20;
  uint64_t seed = 42;
  std::string index_path;
  std::string engine = "algorithm_a";
  int threads = 2;
  uint16_t port = 0;
  std::string port_file;
  int timeout_ms = 0;
  size_t queue_capacity = 1024;
  size_t max_inflight = 4096;
  size_t conn_inflight = 256;
  double trace_sample = 0.0;
  std::string trace_out;
  // HTTP telemetry (serve/http_exposition.h). The listener starts only when
  // one of the --http-* flags is given.
  bool http = false;
  uint16_t http_port = 0;
  std::string http_port_file;
  // After SIGTERM drain, keep the telemetry endpoints alive this long so
  // probes observe /readyz flipping to 503 before the process exits
  // (k8s-style termination grace; CI's scrape-smoke relies on it).
  int drain_grace_ms = 0;
};

// Consumes "--name value" pairs from argv after the positional arguments.
bool ParseFlags(int argc, char** argv, int first, Flags* flags) {
  for (int i = first; i < argc; i += 2) {
    const std::string name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", name.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    if (name == "--genome") {
      flags->genome_length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--index") {
      flags->index_path = value;
    } else if (name == "--engine") {
      flags->engine = value;
    } else if (name == "--threads") {
      flags->threads = std::atoi(value.c_str());
    } else if (name == "--port") {
      flags->port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (name == "--port-file") {
      flags->port_file = value;
    } else if (name == "--timeout-ms") {
      flags->timeout_ms = std::atoi(value.c_str());
    } else if (name == "--queue") {
      flags->queue_capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--max-inflight") {
      flags->max_inflight = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--conn-inflight") {
      flags->conn_inflight = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--trace-sample") {
      flags->trace_sample = std::atof(value.c_str());
    } else if (name == "--trace-out") {
      flags->trace_out = value;
    } else if (name == "--http-port") {
      flags->http = true;
      flags->http_port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (name == "--http-port-file") {
      flags->http = true;
      flags->http_port_file = value;
    } else if (name == "--drain-grace-ms") {
      flags->drain_grace_ms = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", name.c_str());
      return false;
    }
  }
  return true;
}

bool ResolveEngine(const std::string& name, bwtk::BatchEngine* engine) {
  if (name == "algorithm_a") {
    *engine = bwtk::BatchEngine::kAlgorithmA;
  } else if (name == "stree") {
    *engine = bwtk::BatchEngine::kSTree;
  } else if (name == "kerror") {
    *engine = bwtk::BatchEngine::kKError;
  } else if (name == "wildcard") {
    *engine = bwtk::BatchEngine::kWildcard;
  } else if (name == "bidirectional") {
    *engine = bwtk::BatchEngine::kBidirectional;
  } else if (name == "auto") {
    *engine = bwtk::BatchEngine::kAuto;
  } else {
    std::fprintf(stderr,
                 "unknown engine %s (algorithm_a|stree|kerror|wildcard|"
                 "bidirectional|auto)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// bidirectional and auto need a BiFmIndex alongside the forward index.
// MakeIndex discards the genome text (and --index may load a forward-only
// file), so upgrade the forward index by moving it into FromForward, which
// inverts the BWT to recover the text and builds the reverse half from it;
// the Session then points at the pair's forward() half.
bool NeedsBidir(bwtk::BatchEngine engine) {
  return engine == bwtk::BatchEngine::kBidirectional ||
         engine == bwtk::BatchEngine::kAuto;
}

// The index behind both `serve` and `local`: loaded, or generated
// deterministically from (--genome, --seed).
bwtk::Result<bwtk::FmIndex> MakeIndex(const Flags& flags) {
  if (!flags.index_path.empty()) {
    return bwtk::FmIndex::LoadFromFile(flags.index_path);
  }
  bwtk::GenomeOptions genome_options;
  genome_options.length = flags.genome_length;
  genome_options.seed = flags.seed;
  BWTK_ASSIGN_OR_RETURN(const auto genome,
                        bwtk::GenerateGenome(genome_options));
  return bwtk::FmIndex::Build(genome);
}

bwtk::serve::SessionOptions MakeSessionOptions(const Flags& flags,
                                               bwtk::BatchEngine engine) {
  bwtk::serve::SessionOptions options;
  options.num_threads = flags.threads;
  options.queue_capacity = flags.queue_capacity;
  options.max_inflight = flags.max_inflight;
  options.batch.engine = engine;
  options.batch.trace_sample_rate = flags.trace_sample;
  options.batch.trace_out = flags.trace_out;
  return options;
}

std::vector<std::string> ReadPatternFile(const std::string& path) {
  std::vector<std::string> patterns;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) patterns.push_back(line);
  }
  return patterns;
}

// Shared output format for `batch` and `local`, diffable byte for byte:
// one line per hit, then one summary comment.
void PrintHits(size_t query_index, const std::vector<bwtk::Occurrence>& hits) {
  for (const auto& hit : hits) {
    std::printf("%zu\t%zu\t%d\n", query_index, hit.position, hit.mismatches);
  }
}

int RunServe(const Flags& flags) {
  bwtk::BatchEngine engine;
  if (!ResolveEngine(flags.engine, &engine)) return 2;
  auto index = MakeIndex(flags);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::optional<bwtk::BiFmIndex> bidir;
  auto options = MakeSessionOptions(flags, engine);
  const bwtk::FmIndex* forward = &*index;
  if (NeedsBidir(engine)) {
    auto bidir_or = bwtk::BiFmIndex::FromForward(std::move(*index));
    if (!bidir_or.ok()) {
      std::fprintf(stderr, "%s\n", bidir_or.status().ToString().c_str());
      return 1;
    }
    bidir.emplace(std::move(bidir_or).value());
    options.batch.bidir_indexes = {&*bidir};
    forward = &bidir->forward();
  }
  bwtk::serve::Session session(forward, options);
  bwtk::serve::ServerOptions server_options;
  server_options.port = flags.port;
  server_options.max_inflight_per_connection = flags.conn_inflight;
  server_options.request_timeout = std::chrono::milliseconds(flags.timeout_ms);
  bwtk::serve::Server server(&session, server_options);
  const bwtk::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (!flags.port_file.empty()) {
    // Written atomically-enough for scripts: the port only appears once
    // the listener is live (rename would be overkill for a smoke tool).
    std::ofstream out(flags.port_file);
    out << server.port() << "\n";
  }

  // Optional live telemetry: a windowed aggregator over the registry and
  // the HTTP exposition endpoints. Ready only once everything above is up.
  std::unique_ptr<bwtk::obs::WindowedAggregator> aggregator;
  std::unique_ptr<bwtk::serve::HttpExpositionServer> exposition;
  if (flags.http) {
    aggregator = std::make_unique<bwtk::obs::WindowedAggregator>(
        &bwtk::obs::MetricsRegistry::Instance());
    aggregator->StartTicker();
    bwtk::serve::HttpExpositionOptions http_options;
    http_options.port = flags.http_port;
    exposition = std::make_unique<bwtk::serve::HttpExpositionServer>(
        aggregator.get(), &session, &server, http_options);
    const bwtk::Status http_started = exposition->Start();
    if (!http_started.ok()) {
      std::fprintf(stderr, "%s\n", http_started.ToString().c_str());
      return 1;
    }
    exposition->SetReady(true);  // index loaded, front-end listening
    if (!flags.http_port_file.empty()) {
      std::ofstream out(flags.http_port_file);
      out << exposition->port() << "\n";
    }
    std::fprintf(stderr, "telemetry on http://127.0.0.1:%u (/metrics "
                 "/varz.json /healthz /readyz)\n",
                 exposition->port());
  }
  std::fprintf(stderr, "serving %s on 127.0.0.1:%u (%zu bp, %d workers)\n",
               bwtk::BatchEngineName(engine).data(), server.port(),
               forward->text_size(), session.num_threads());

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful shutdown: stop accepting bytes, let admitted queries finish.
  // The telemetry endpoints stay up through the drain (and the grace
  // window) so /readyz observably reports 503 while /healthz stays 200 —
  // exactly what a load balancer needs to route around a terminating pod.
  std::fprintf(stderr, "draining...\n");
  server.Stop();
  session.Drain();
  if (flags.drain_grace_ms > 0 && exposition != nullptr) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.drain_grace_ms));
  }
  const bwtk::serve::SessionStats stats = session.Stats();
  std::fprintf(stderr,
               "served %llu queries (%llu rejected overloaded, %llu "
               "rejected unavailable)\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.rejected_overloaded),
               static_cast<unsigned long long>(stats.rejected_unavailable));
  return 0;
}

int RunQuery(const std::string& host, uint16_t port,
             const std::string& pattern, int32_t k,
             std::optional<bwtk::BatchEngine> engine) {
  auto client = bwtk::serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  const auto response = (*client)->Query(pattern, k, /*want_stats=*/false,
                                         engine);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  const bwtk::Status outcome = bwtk::serve::FromWireStatus(
      response->status, response->message);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.ToString().c_str());
    return 1;
  }
  for (const auto& hit : response->hits) {
    std::printf("%zu\t%d\n", hit.position, hit.mismatches);
  }
  std::printf("# %zu occurrences with k=%d\n", response->hits.size(), k);
  return 0;
}

int RunBatch(const std::string& host, uint16_t port, const std::string& file,
             int32_t k) {
  const std::vector<std::string> patterns = ReadPatternFile(file);
  auto client_or = bwtk::serve::Client::Connect(host, port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "%s\n", client_or.status().ToString().c_str());
    return 1;
  }
  bwtk::serve::Client& client = **client_or;
  // Pipeline under the server's advertised per-connection cap; collect
  // responses (any order) into input-order slots.
  const size_t window =
      std::max<size_t>(1, client.hello().max_inflight / 2);
  std::vector<std::vector<bwtk::Occurrence>> hits(patterns.size());
  std::vector<uint64_t> id_of(patterns.size(), 0);
  size_t sent = 0;
  size_t received = 0;
  size_t failed = 0;
  while (received < patterns.size()) {
    while (sent < patterns.size() && sent - received < window) {
      const auto id = client.SendQuery(patterns[sent], k);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      id_of[sent] = id.value();
      ++sent;
    }
    auto response = client.ReceiveResponse();
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    // request ids are assigned densely in submission order: recover the
    // input slot without a map.
    const size_t slot =
        static_cast<size_t>(response->request_id - id_of[0]);
    if (slot >= patterns.size() || id_of[slot] != response->request_id) {
      std::fprintf(stderr, "unexpected request id %llu\n",
                   static_cast<unsigned long long>(response->request_id));
      return 1;
    }
    if (response->status != bwtk::serve::WireStatus::kOk) {
      std::fprintf(stderr, "query %zu: %s\n", slot,
                   bwtk::serve::FromWireStatus(response->status,
                                               response->message)
                       .ToString()
                       .c_str());
      ++failed;
    } else {
      hits[slot] = std::move(response->hits);
    }
    ++received;
  }
  size_t total = 0;
  for (size_t q = 0; q < patterns.size(); ++q) {
    PrintHits(q, hits[q]);
    total += hits[q].size();
  }
  std::printf("# %zu queries, %zu hits, k=%d\n", patterns.size(), total, k);
  return failed == 0 ? 0 : 1;
}

int RunStats(const std::string& host, uint16_t port) {
  auto client = bwtk::serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  const auto stats = (*client)->GetStats();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("engine:               %s%s\n",
              (*client)->hello().engine.c_str(),
              (*client)->hello().sharded ? " (sharded)" : "");
  std::printf("queue_depth:          %zu\n", stats->queue_depth);
  std::printf("running:              %zu\n", stats->running);
  std::printf("inflight:             %zu\n", stats->inflight);
  std::printf("submitted:            %llu\n",
              static_cast<unsigned long long>(stats->submitted));
  std::printf("completed:            %llu\n",
              static_cast<unsigned long long>(stats->completed));
  std::printf("rejected_overloaded:  %llu\n",
              static_cast<unsigned long long>(stats->rejected_overloaded));
  std::printf("rejected_unavailable: %llu\n",
              static_cast<unsigned long long>(stats->rejected_unavailable));
  std::printf("result_cache_hits:    %llu\n",
              static_cast<unsigned long long>(stats->result_cache_hits));
  std::printf("result_cache_misses:  %llu\n",
              static_cast<unsigned long long>(stats->result_cache_misses));
  std::printf("shard_exact_shortcuts:%llu\n",
              static_cast<unsigned long long>(stats->shard_exact_shortcuts));
  std::printf("accepting:            %s\n", stats->accepting ? "yes" : "no");
  return 0;
}

// Same queries, no network: the byte-identity baseline for `batch`.
int RunLocal(const std::string& file, int32_t k, const Flags& flags) {
  bwtk::BatchEngine engine;
  if (!ResolveEngine(flags.engine, &engine)) return 2;
  auto index = MakeIndex(flags);
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> patterns = ReadPatternFile(file);
  std::optional<bwtk::BiFmIndex> bidir;
  auto options = MakeSessionOptions(flags, engine);
  const bwtk::FmIndex* forward = &*index;
  if (NeedsBidir(engine)) {
    auto bidir_or = bwtk::BiFmIndex::FromForward(std::move(*index));
    if (!bidir_or.ok()) {
      std::fprintf(stderr, "%s\n", bidir_or.status().ToString().c_str());
      return 1;
    }
    bidir.emplace(std::move(bidir_or).value());
    options.batch.bidir_indexes = {&*bidir};
    forward = &bidir->forward();
  }
  bwtk::serve::Session session(forward, options);
  std::vector<bwtk::serve::Ticket> tickets;
  tickets.reserve(patterns.size());
  size_t total = 0;
  for (size_t q = 0; q < patterns.size(); ++q) {
    const auto ticket = session.Submit(patterns[q], k);
    if (!ticket.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", q,
                   ticket.status().ToString().c_str());
      return 1;
    }
    auto result = session.Wait(ticket.value());
    if (!result.ok() || !result->status.ok()) {
      std::fprintf(stderr, "query %zu failed\n", q);
      return 1;
    }
    PrintHits(q, result->hits);
    total += result->hits.size();
  }
  std::printf("# %zu queries, %zu hits, k=%d\n", patterns.size(), total, k);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s serve [--genome N] [--seed S] [--index f.idx] [--engine E]\n"
      "           [--threads N] [--port P] [--port-file PATH]\n"
      "           [--timeout-ms T] [--queue N] [--max-inflight N]\n"
      "           [--conn-inflight N] [--trace-sample R] [--trace-out PATH]\n"
      "           [--http-port P] [--http-port-file PATH]\n"
      "           [--drain-grace-ms T]\n"
      "  %s query HOST PORT PATTERN [k [engine]]\n"
      "  %s batch HOST PORT PATTERNS_FILE [k]\n"
      "  %s stats HOST PORT\n"
      "  %s local PATTERNS_FILE [k] [index/engine flags as for serve]\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "serve") {
    Flags flags;
    if (!ParseFlags(argc, argv, 2, &flags)) return 2;
    return RunServe(flags);
  }
  if (mode == "query" && argc >= 5) {
    const int32_t k = argc > 5 ? std::atoi(argv[5]) : 0;
    // Optional trailing engine name: a per-query override carried in the
    // QUERY frame's trailer (docs/SERVING.md §4.3) — this one query runs
    // under that engine instead of the session default.
    std::optional<bwtk::BatchEngine> engine;
    if (argc > 6) {
      bwtk::BatchEngine resolved;
      if (!ResolveEngine(argv[6], &resolved)) return 2;
      engine = resolved;
    }
    return RunQuery(argv[2], static_cast<uint16_t>(std::atoi(argv[3])),
                    argv[4], k, engine);
  }
  if (mode == "batch" && argc >= 5) {
    const int32_t k = argc > 5 ? std::atoi(argv[5]) : 0;
    return RunBatch(argv[2], static_cast<uint16_t>(std::atoi(argv[3])),
                    argv[4], k);
  }
  if (mode == "stats" && argc >= 4) {
    return RunStats(argv[2], static_cast<uint16_t>(std::atoi(argv[3])));
  }
  if (mode == "local" && argc >= 3) {
    Flags flags;
    int first_flag = 3;
    int32_t k = 0;
    if (argc > 3 && argv[3][0] != '-') {
      k = std::atoi(argv[3]);
      first_flag = 4;
    }
    if (!ParseFlags(argc, argv, first_flag, &flags)) return 2;
    return RunLocal(argv[2], k, flags);
  }
  return Usage(argv[0]);
}
