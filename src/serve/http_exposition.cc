#include "serve/http_exposition.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"
#include "util/logging.h"

namespace bwtk::serve {

namespace {

std::string HttpResponse(int code, std::string_view reason,
                         std::string_view content_type,
                         std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct HttpExpositionServer::Impl {
  obs::WindowedAggregator* aggregator = nullptr;
  Session* session = nullptr;
  Server* server = nullptr;  // nullable
  HttpExpositionOptions options;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::atomic<bool> ready{false};
  std::atomic<bool> stopping{false};
  std::thread acceptor;

  bool Ready() const {
    return ready.load(std::memory_order_relaxed) && session->accepting();
  }

  // Assembles the rolling windows once per request; both renderers share it.
  std::vector<obs::WindowView> Windows() const {
    std::vector<obs::WindowView> views;
    for (const auto& [label, nanos] : obs::StandardWindows()) {
      views.push_back(obs::WindowView{label, aggregator->Window(nanos)});
    }
    return views;
  }

  std::vector<obs::GaugeSample> Gauges() const {
    const SessionStats stats = session->Stats();
    std::vector<obs::GaugeSample> gauges;
    gauges.push_back({"bwtk_serve_queue_depth",
                      static_cast<double>(stats.queue_depth),
                      {},
                      "Tickets admitted and waiting for a worker."});
    gauges.push_back({"bwtk_serve_running",
                      static_cast<double>(stats.running),
                      {},
                      "Tickets currently executing on a worker."});
    gauges.push_back({"bwtk_serve_inflight",
                      static_cast<double>(stats.inflight),
                      {},
                      "Tickets admitted whose results are uncollected."});
    gauges.push_back({"bwtk_serve_accepting",
                      stats.accepting ? 1.0 : 0.0,
                      {},
                      "1 while the Session admits queries (kServing)."});
    gauges.push_back({"bwtk_ready",
                      Ready() ? 1.0 : 0.0,
                      {},
                      "The /readyz verdict (operator flag AND accepting)."});
    if (server != nullptr) {
      gauges.push_back({"bwtk_serve_connections",
                        static_cast<double>(server->num_connections()),
                        {},
                        "Open TCP front-end connections."});
    }
    return gauges;
  }

  std::string RenderMetrics() const {
    return obs::RenderPrometheusText(aggregator->Cumulative(), Windows(),
                                     Gauges());
  }

  std::string RenderVarz() const {
    const SessionStats stats = session->Stats();
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("ready").Value(Ready());
    writer.Key("engine").Value(session->engine_name());
    writer.Key("ticks").Value(aggregator->ticks());
    writer.Key("resets").Value(aggregator->resets());
    writer.Key("session");
    writer.BeginObject();
    writer.Key("queue_depth").Value(static_cast<uint64_t>(stats.queue_depth));
    writer.Key("running").Value(static_cast<uint64_t>(stats.running));
    writer.Key("inflight").Value(static_cast<uint64_t>(stats.inflight));
    writer.Key("submitted").Value(stats.submitted);
    writer.Key("completed").Value(stats.completed);
    writer.Key("rejected_overloaded").Value(stats.rejected_overloaded);
    writer.Key("rejected_unavailable").Value(stats.rejected_unavailable);
    writer.Key("result_cache_hits").Value(stats.result_cache_hits);
    writer.Key("result_cache_misses").Value(stats.result_cache_misses);
    writer.Key("shard_exact_shortcuts").Value(stats.shard_exact_shortcuts);
    writer.Key("accepting").Value(stats.accepting);
    writer.EndObject();
    if (server != nullptr) {
      writer.Key("connections");
      writer.BeginArray();
      for (const Server::ConnectionStats& conn :
           server->ConnectionsSnapshot()) {
        writer.BeginObject();
        writer.Key("id").Value(conn.id);
        writer.Key("queries").Value(conn.queries);
        writer.Key("stats_requests").Value(conn.stats_requests);
        writer.Key("overloaded").Value(conn.overloaded);
        writer.Key("bytes_in").Value(conn.bytes_in);
        writer.Key("bytes_out").Value(conn.bytes_out);
        writer.Key("inflight").Value(conn.inflight);
        writer.Key("age_seconds")
            .Value(static_cast<double>(conn.age_nanos) / 1e9);
        writer.Key("idle_seconds")
            .Value(static_cast<double>(conn.idle_nanos) / 1e9);
        writer.EndObject();
      }
      writer.EndArray();
    }
    writer.Key("cumulative");
    obs::AppendCumulativeJson(aggregator->Cumulative(), &writer);
    writer.Key("windows");
    obs::AppendWindowsJson(Windows(), &writer);
    writer.EndObject();
    return std::move(writer).TakeString();
  }

  // One request → one response → close. Returns nothing interesting;
  // failures just drop the connection (the scraper retries).
  void Handle(int fd) {
    timeval timeout{};
    timeout.tv_sec = options.request_timeout_ms / 1000;
    timeout.tv_usec = (options.request_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

    // Read until the end of the request head (we ignore any body; GETs
    // have none). request_timeout_ms bounds the WHOLE request, not each
    // read: a per-read timeout alone would let a drip-feeding client
    // (one byte per read, each arriving just in time) hold the serial
    // accept loop forever, starving every later scrape. Before each read
    // the receive timeout shrinks to the budget still remaining.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options.request_timeout_ms);
    std::string request;
    char buffer[4096];
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < options.max_request_bytes) {
      const auto remaining = deadline - std::chrono::steady_clock::now();
      if (remaining <= std::chrono::milliseconds(0)) break;
      // At least 1µs: a zero timeval would mean "block forever".
      const int64_t remaining_us = std::max<int64_t>(
          1, std::chrono::duration_cast<std::chrono::microseconds>(remaining)
                 .count());
      timeval recv_timeout{};
      recv_timeout.tv_sec = static_cast<time_t>(remaining_us / 1000000);
      recv_timeout.tv_usec = static_cast<suseconds_t>(remaining_us % 1000000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                   sizeof(recv_timeout));
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      request.append(buffer, static_cast<size_t>(n));
    }
    const size_t line_end = request.find("\r\n");
    if (line_end == std::string::npos) return;  // no complete request line
    const std::string_view line =
        std::string_view(request).substr(0, line_end);

    // "METHOD SP target SP version"
    const size_t method_end = line.find(' ');
    if (method_end == std::string_view::npos) return;
    const size_t target_end = line.find(' ', method_end + 1);
    if (target_end == std::string_view::npos) return;
    const std::string_view method = line.substr(0, method_end);
    std::string_view target =
        line.substr(method_end + 1, target_end - method_end - 1);
    const size_t query_start = target.find('?');
    if (query_start != std::string_view::npos) {
      target = target.substr(0, query_start);
    }

    std::string response;
    if (method != "GET") {
      response = HttpResponse(405, "Method Not Allowed", "text/plain",
                              "only GET is supported\n");
    } else if (target == "/metrics") {
      response = HttpResponse(200, "OK",
                              "text/plain; version=0.0.4; charset=utf-8",
                              RenderMetrics());
    } else if (target == "/varz.json") {
      response =
          HttpResponse(200, "OK", "application/json", RenderVarz());
    } else if (target == "/healthz") {
      response = HttpResponse(200, "OK", "text/plain", "ok\n");
    } else if (target == "/readyz") {
      response = Ready()
                     ? HttpResponse(200, "OK", "text/plain", "ready\n")
                     : HttpResponse(503, "Service Unavailable", "text/plain",
                                    "not ready\n");
    } else {
      response = HttpResponse(404, "Not Found", "text/plain",
                              "unknown path; try /metrics /varz.json "
                              "/healthz /readyz\n");
    }
    SendAll(fd, response);
  }

  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed by Stop
      }
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      Handle(fd);
      ::close(fd);
    }
  }
};

HttpExpositionServer::HttpExpositionServer(obs::WindowedAggregator* aggregator,
                                           Session* session, Server* server,
                                           const HttpExpositionOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BWTK_CHECK(aggregator != nullptr);
  BWTK_CHECK(session != nullptr);
  impl_->aggregator = aggregator;
  impl_->session = session;
  impl_->server = server;
  impl_->options = options;
}

HttpExpositionServer::~HttpExpositionServer() { Stop(); }

Status HttpExpositionServer::Start() {
  Impl& impl = *impl_;
  BWTK_CHECK(impl.listen_fd < 0);  // Start is once-only
  BWTK_ASSIGN_OR_RETURN(
      impl.listen_fd,
      OpenListener(impl.options.host, impl.options.port,
                   impl.options.listen_backlog, &impl.bound_port));
  impl.acceptor = std::thread([&impl] { impl.AcceptLoop(); });
  return Status::OK();
}

uint16_t HttpExpositionServer::port() const { return impl_->bound_port; }

void HttpExpositionServer::Stop() {
  Impl& impl = *impl_;
  if (impl.stopping.exchange(true)) {
    if (impl.acceptor.joinable()) impl.acceptor.join();
    return;
  }
  if (impl.listen_fd >= 0) {
    ::shutdown(impl.listen_fd, SHUT_RDWR);
    ::close(impl.listen_fd);
  }
  if (impl.acceptor.joinable()) impl.acceptor.join();
}

void HttpExpositionServer::SetReady(bool ready) {
  impl_->ready.store(ready, std::memory_order_relaxed);
}

bool HttpExpositionServer::ready() const { return impl_->Ready(); }

}  // namespace bwtk::serve
