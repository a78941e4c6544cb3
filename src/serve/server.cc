#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace bwtk::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// One client socket plus the bookkeeping for its outstanding requests.
// Shared between the reader thread, Session worker callbacks, and the
// timeout reaper; kept alive by shared_ptr until the last of them lets go.
struct Connection {
  int fd = -1;

  // Telemetry (serve/http_exposition.h, serve_top). `id` is assigned at
  // accept and immutable; the counters are relaxed atomics because the
  // exposition thread snapshots them while the reader/worker threads write.
  uint64_t id = 0;
  Clock::time_point opened = Clock::now();
  std::atomic<uint64_t> queries{0};         // QUERY frames received
  std::atomic<uint64_t> stats_requests{0};  // STATS frames received
  std::atomic<uint64_t> overloaded{0};      // layer-1 rejections
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> last_activity_nanos{0};  // steady nanos of last recv

  // Guards fd liveness and serializes frame writes (a RESULT from a worker
  // must not interleave with one from the reaper).
  std::mutex write_mu;
  bool closed = false;

  // Outstanding QUERY bookkeeping.
  struct PendingRequest {
    bool responded = false;  // a RESULT (possibly kTimedOut) already went out
    Clock::time_point deadline;
  };
  std::mutex request_mu;
  std::unordered_map<uint64_t, PendingRequest> pending;
  size_t inflight = 0;  // unanswered QUERYs (the per-connection gauge)

  void Send(std::string_view frame) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (closed) return;
    if (!SendAll(fd, frame)) {
      // Peer is gone; stop writing. The reader thread notices on its side
      // and tears the connection down.
      closed = true;
      return;
    }
    bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  }

  void SendResponse(const QueryResponse& response) {
    std::string frame;
    AppendResultFrame(response, &frame);
    Send(frame);
  }

  // Severs the socket so a blocked recv/send returns. Does not close the
  // descriptor (the reader thread owns that).
  void Sever() { ::shutdown(fd, SHUT_RDWR); }
};

}  // namespace

struct Server::Impl {
  Session* session = nullptr;
  ServerOptions options;

  int listen_fd = -1;
  uint16_t bound_port = 0;

  mutable std::mutex mu;
  bool stopping = false;
  uint64_t next_conn_id = 1;  // anonymous accept-order ids (guarded by mu)
  std::vector<std::shared_ptr<Connection>> connections;  // open connections
  std::unordered_map<uint64_t, std::thread> readers;  // by connection id
  // Readers whose connection has closed. A thread cannot join itself, so
  // each closing reader parks its own thread here and joins the ones
  // parked before it; Stop joins the rest. At most one exited reader (and
  // its stack) thus outlives its connection.
  std::vector<std::thread> finished_readers;
  std::thread acceptor;
  std::thread reaper;
  // Wakes the reaper, and an acceptor backing off, early on Stop.
  std::condition_variable stop_cv;

  // --- Per-connection protocol ------------------------------------------

  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const std::string& payload) {
    const Result<QueryRequest> parsed = ParseQueryPayload(payload);
    if (!parsed.ok()) {
      // Framing is intact but the payload is garbage: answer and carry on
      // (the stream is still synchronized). The RESULT echoes the request
      // id whenever the payload holds it (its first 8 bytes), so a client
      // waiting on that id gets its answer (docs/SERVING.md §4.3).
      QueryResponse response;
      if (payload.size() >= sizeof(response.request_id)) {
        std::memcpy(&response.request_id, payload.data(),
                    sizeof(response.request_id));
      }
      response.status = WireStatus::kInvalidArgument;
      response.message = parsed.status().message();
      conn->SendResponse(response);
      return;
    }
    const QueryRequest& request = parsed.value();
    conn->queries.fetch_add(1, std::memory_order_relaxed);
    if (request.want_stats) BWTK_METRIC_COUNT(kCounterServeStatsTrailers);
    QueryResponse reject;
    reject.request_id = request.request_id;

    // Layer 1: per-connection admission, before touching the Session.
    {
      std::lock_guard<std::mutex> lock(conn->request_mu);
      if (conn->pending.contains(request.request_id)) {
        reject.status = WireStatus::kInvalidArgument;
        reject.message = "request id " + std::to_string(request.request_id) +
                         " is already outstanding on this connection";
        conn->SendResponse(reject);
        return;
      }
      if (conn->inflight >= options.max_inflight_per_connection) {
        conn->overloaded.fetch_add(1, std::memory_order_relaxed);
        BWTK_METRIC_COUNT(kCounterServeConnOverloaded);
        reject.status = WireStatus::kOverloaded;
        reject.message = "connection in-flight cap (" +
                         std::to_string(options.max_inflight_per_connection) +
                         ") reached; read some results first";
        conn->SendResponse(reject);
        return;
      }
    }

    // The override (wire engine byte) decides how the pattern decodes —
    // wildcard syntax only parses under an effective kWildcard — and which
    // engine the Session runs; Submit validates availability and answers
    // kInvalidArgument for an engine this session cannot execute.
    const BatchEngine effective_engine =
        request.engine_override.value_or(session->engine());
    auto codes = DecodeBatchPattern(effective_engine, request.pattern);
    if (!codes.ok()) {
      reject.status = WireStatus::kInvalidArgument;
      reject.message = codes.status().message();
      conn->SendResponse(reject);
      return;
    }

    // Claim the in-flight slot, then submit. The callback owns releasing
    // the slot (or the reaper does, on timeout).
    {
      std::lock_guard<std::mutex> lock(conn->request_mu);
      Connection::PendingRequest entry;
      if (options.request_timeout.count() > 0) {
        entry.deadline = Clock::now() + options.request_timeout;
      }
      conn->pending.emplace(request.request_id, entry);
      ++conn->inflight;
    }
    const uint64_t request_id = request.request_id;
    const bool want_stats = request.want_stats;
    const Result<Ticket> ticket = session->Submit(
        BatchQuery{std::move(codes).value(), request.k},
        request.engine_override,
        [conn, request_id, want_stats](QueryResult result) {
          QueryResponse response;
          response.request_id = request_id;
          response.status = ToWireStatus(result.status);
          response.message = result.status.message();
          response.hits = std::move(result.hits);
          if (want_stats) {
            response.has_stats = true;
            response.cache_served = result.cache_served;
            response.stats = result.stats;
            response.queue_ns = result.queue_ns;
            response.search_ns = result.search_ns;
          }
          {
            std::lock_guard<std::mutex> lock(conn->request_mu);
            const auto it = conn->pending.find(request_id);
            if (it == conn->pending.end()) return;  // connection torn down
            const bool already_responded = it->second.responded;
            conn->pending.erase(it);
            if (already_responded) return;  // the reaper timed it out
            --conn->inflight;
          }
          conn->SendResponse(response);
        });
    if (!ticket.ok()) {
      // Layer 2: session admission refused — release the slot and answer
      // with the mapped wire status (kOverloaded / kUnavailable / ...).
      {
        std::lock_guard<std::mutex> lock(conn->request_mu);
        conn->pending.erase(request_id);
        --conn->inflight;
      }
      reject.status = ToWireStatus(ticket.status());
      reject.message = ticket.status().message();
      conn->SendResponse(reject);
    }
  }

  // Returns false when the connection must close (protocol violation).
  bool HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                   bool* saw_hello) {
    if (!*saw_hello) {
      if (frame.type != FrameType::kHello) return false;
      const Status status = ValidateHelloPayload(frame.payload);
      if (!status.ok()) {
        BWTK_LOG(Warning) << "serve: rejected client: " << status.message();
        return false;
      }
      HelloAck ack;
      ack.max_inflight =
          static_cast<uint32_t>(options.max_inflight_per_connection);
      ack.engine = std::string(session->engine_name());
      ack.sharded = session->num_indexes() > 1;
      std::string out;
      AppendHelloAckFrame(ack, &out);
      conn->Send(out);
      *saw_hello = true;
      return true;
    }
    switch (frame.type) {
      case FrameType::kQuery:
        HandleQuery(conn, frame.payload);
        return true;
      case FrameType::kStats: {
        conn->stats_requests.fetch_add(1, std::memory_order_relaxed);
        std::string out;
        AppendStatsResultFrame(session->Stats(), &out);
        conn->Send(out);
        return true;
      }
      default:
        // HELLO twice, or a server→client type: protocol violation.
        return false;
    }
  }

  void ReaderLoop(std::shared_ptr<Connection> conn) {
    FrameReader reader(options.max_frame_payload);
    bool saw_hello = false;
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, error, or Stop's shutdown()
      conn->bytes_in.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      conn->last_activity_nanos.store(NowNanos(), std::memory_order_relaxed);
      reader.Feed(buffer, static_cast<size_t>(n));
      bool tear_down = false;
      for (;;) {
        Result<std::optional<Frame>> next = reader.Next();
        if (!next.ok()) {
          BWTK_LOG(Warning) << "serve: closing connection: "
                            << next.status().message();
          tear_down = true;
          break;
        }
        if (!next.value().has_value()) break;
        if (!HandleFrame(conn, std::move(next.value()).value(), &saw_hello)) {
          tear_down = true;
          break;
        }
      }
      if (tear_down) break;
    }
    // Quiesce the connection: late worker callbacks find no pending entry
    // and drop their responses; writes become no-ops.
    {
      std::lock_guard<std::mutex> lock(conn->request_mu);
      conn->pending.clear();
      conn->inflight = 0;
    }
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      conn->closed = true;
      ::close(conn->fd);
    }
    std::vector<std::thread> exited;
    {
      std::lock_guard<std::mutex> lock(mu);
      std::erase(connections, conn);
      exited.swap(finished_readers);
      const auto self = readers.find(conn->id);
      if (self != readers.end()) {  // absent once Stop has taken it over
        finished_readers.push_back(std::move(self->second));
        readers.erase(self);
      }
    }
    for (std::thread& thread : exited) thread.join();
  }

  // --- Timeout reaper ----------------------------------------------------

  void ReaperLoop() {
    // The scan interval bounds timeout precision at timeout/4 (min 1ms,
    // max 50ms) — coarse on purpose; request_timeout is a shedding
    // mechanism, not a scheduler.
    const auto interval = std::clamp<std::chrono::milliseconds>(
        options.request_timeout / 4, std::chrono::milliseconds(1),
        std::chrono::milliseconds(50));
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      stop_cv.wait_for(lock, interval);
      if (stopping) return;
      const std::vector<std::shared_ptr<Connection>> snapshot = connections;
      lock.unlock();
      const auto now = Clock::now();
      for (const auto& conn : snapshot) {
        std::vector<uint64_t> expired;
        {
          std::lock_guard<std::mutex> request_lock(conn->request_mu);
          for (auto& [request_id, entry] : conn->pending) {
            if (!entry.responded && entry.deadline <= now) {
              // Keep the entry: the worker callback will erase it and see
              // that a response already went out.
              entry.responded = true;
              --conn->inflight;
              expired.push_back(request_id);
            }
          }
        }
        for (const uint64_t request_id : expired) {
          QueryResponse response;
          response.request_id = request_id;
          response.status = WireStatus::kTimedOut;
          response.message = "request timed out server-side; the search "
                             "still runs but its result is discarded";
          conn->SendResponse(response);
        }
      }
      lock.lock();
    }
  }

  // --- Acceptor ----------------------------------------------------------

  // Runs until Stop(). No accept() error ends it: a full descriptor table
  // (EMFILE/ENFILE) or a kernel short of buffers clears as connections
  // close, so the loop backs off and retries; a connection reset before it
  // was accepted (ECONNABORTED) is simply skipped.
  void AcceptorLoop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        const int error = errno;
        std::unique_lock<std::mutex> lock(mu);
        if (stopping) return;  // Stop shut the listener down
        if (error != EINTR && error != ECONNABORTED) {
          stop_cv.wait_for(lock, std::chrono::milliseconds(10),
                           [&] { return stopping; });
        }
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->last_activity_nanos.store(NowNanos(), std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      if (stopping) {
        ::close(fd);
        return;
      }
      conn->id = next_conn_id++;
      connections.push_back(conn);
      // Inserted under `mu`, which the reader needs before it can park
      // itself, so the entry exists by the time the reader looks for it.
      try {
        readers.emplace(conn->id, std::thread([this, conn]() mutable {
                          ReaderLoop(std::move(conn));
                        }));
      } catch (const std::system_error&) {
        // No thread for a reader (a thread or memory limit): refuse this
        // client and keep serving the others.
        connections.pop_back();
        ::close(fd);
      }
    }
  }
};

Server::Server(Session* session, const ServerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  BWTK_CHECK(session != nullptr);
  impl_->session = session;
  impl_->options = options;
}

Server::~Server() { Stop(); }

Result<int> OpenListener(const std::string& host, uint16_t port, int backlog,
                         uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind/listen on " + host + ":" +
                           std::to_string(port) + ": " + error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

Status Server::Start() {
  Impl& impl = *impl_;
  BWTK_CHECK(impl.listen_fd < 0);  // Start is once-only
  BWTK_ASSIGN_OR_RETURN(
      impl.listen_fd,
      OpenListener(impl.options.host, impl.options.port,
                   impl.options.listen_backlog, &impl.bound_port));
  impl.acceptor = std::thread([&impl] { impl.AcceptorLoop(); });
  if (impl.options.request_timeout.count() > 0) {
    impl.reaper = std::thread([&impl] { impl.ReaperLoop(); });
  }
  return Status::OK();
}

uint16_t Server::port() const { return impl_->bound_port; }

void Server::Stop() {
  Impl& impl = *impl_;
  std::vector<std::shared_ptr<Connection>> to_sever;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    if (impl.stopping) return;
    impl.stopping = true;
    to_sever = impl.connections;
  }
  impl.stop_cv.notify_all();
  // shutdown() unblocks a blocked accept() and fails every later one; the
  // descriptor is closed (releasing the port) only once the acceptor has
  // exited, so it can never accept() on a reused descriptor number.
  if (impl.listen_fd >= 0) ::shutdown(impl.listen_fd, SHUT_RDWR);
  for (const auto& conn : to_sever) conn->Sever();
  if (impl.acceptor.joinable()) impl.acceptor.join();
  if (impl.listen_fd >= 0) ::close(impl.listen_fd);
  if (impl.reaper.joinable()) impl.reaper.join();
  // The acceptor can no longer add readers: join the parked ones and the
  // ones still running (severed above, so they are on their way out).
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    readers.swap(impl.finished_readers);
    for (auto& [id, thread] : impl.readers) {
      readers.push_back(std::move(thread));
    }
    impl.readers.clear();
  }
  for (std::thread& thread : readers) thread.join();
}

size_t Server::num_connections() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->connections.size();
}

std::vector<Server::ConnectionStats> Server::ConnectionsSnapshot() const {
  std::vector<ConnectionStats> out;
  const uint64_t now = NowNanos();
  const Clock::time_point now_tp = Clock::now();
  std::lock_guard<std::mutex> lock(impl_->mu);
  out.reserve(impl_->connections.size());
  for (const auto& conn : impl_->connections) {
    ConnectionStats stats;
    stats.id = conn->id;
    stats.queries = conn->queries.load(std::memory_order_relaxed);
    stats.stats_requests =
        conn->stats_requests.load(std::memory_order_relaxed);
    stats.overloaded = conn->overloaded.load(std::memory_order_relaxed);
    stats.bytes_in = conn->bytes_in.load(std::memory_order_relaxed);
    stats.bytes_out = conn->bytes_out.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> request_lock(conn->request_mu);
      stats.inflight = conn->inflight;
    }
    stats.age_nanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now_tp -
                                                             conn->opened)
            .count());
    const uint64_t last =
        conn->last_activity_nanos.load(std::memory_order_relaxed);
    stats.idle_nanos = now > last ? now - last : 0;
    out.push_back(stats);
  }
  return out;
}

}  // namespace bwtk::serve
