// TCP front-end over a serve::Session: accepts connections speaking the
// length-prefixed binary protocol of serve/wire.h (normative spec in
// docs/SERVING.md) and turns QUERY frames into Session submissions.
//
// Threading model: one acceptor thread plus one reader thread per
// connection — deliberately simple; the expensive work happens on the
// Session's worker pool, and connections are expected to be few and
// long-lived (a client multiplexes many requests over one socket). A
// closed connection's reader is joined by the next reader to close (or by
// Stop), so connection churn does not accumulate exited thread stacks.
// Responses are written by Session callbacks from worker threads, under a
// per-connection write lock, so they stream back as queries finish —
// out of order, matched by request_id.
//
// Backpressure is layered:
//   1. per-connection: more than ServerOptions::max_inflight_per_connection
//      unanswered QUERYs → immediate RESULT with kOverloaded (the frames
//      are answered, never silently dropped);
//   2. session-wide: Submit's admission control (queue + in-flight budget)
//      → RESULT with kOverloaded;
//   3. request timeout: when request_timeout is set, a query unanswered
//      past the deadline gets a RESULT with kTimedOut; the search itself
//      is not cancelled (the engine has no preemption points), its late
//      result is discarded. Exactly one RESULT per QUERY, always.
//
// Shutdown: Stop() closes the listener, shuts down every connection
// socket, and joins all threads; in-flight queries finish against the
// Session (their responses go nowhere). The Session is not drained —
// that is the operator's call (see examples/serve_tool.cpp, which drains
// on SIGTERM).

#ifndef BWTK_SERVE_SERVER_H_
#define BWTK_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/session.h"
#include "serve/wire.h"
#include "util/status.h"

namespace bwtk::serve {

/// Front-end configuration, fixed at Start.
struct ServerOptions {
  /// Bind address. Loopback by default: the protocol has no auth, so
  /// exposing it wider is an explicit operator decision.
  std::string host = "127.0.0.1";

  /// Bind port; 0 asks the kernel for an ephemeral port (read it back from
  /// Server::port(), or via --port-file in serve_tool for scripts).
  uint16_t port = 0;

  /// Unanswered QUERYs one connection may have outstanding before new ones
  /// are answered kOverloaded. Advertised to clients in HELLO_ACK.
  size_t max_inflight_per_connection = 256;

  /// Zero disables timeouts. Otherwise a QUERY unanswered this long gets a
  /// kTimedOut RESULT (the search still runs to completion internally).
  std::chrono::milliseconds request_timeout{0};

  /// Frame-size cap fed to FrameReader; an announced payload over this
  /// closes the connection.
  size_t max_frame_payload = kDefaultMaxFramePayload;

  /// listen(2) backlog.
  int listen_backlog = 16;
};

/// Opens a listening TCP socket on host:port (port 0: the kernel picks one)
/// with SO_REUSEADDR and the given listen(2) backlog, and stores the bound
/// port in *bound_port. Returns the descriptor, which the caller closes.
/// InvalidArgument on a bad host, IoError when socket/bind/listen fail.
Result<int> OpenListener(const std::string& host, uint16_t port, int backlog,
                         uint16_t* bound_port);

/// The listener. Owns sockets and service threads, not the Session.
class Server {
 public:
  /// `session` must outlive the Server and should usually be dedicated to
  /// it (the server competes for the session's admission budget with any
  /// direct submitter).
  Server(Session* session, const ServerOptions& options = {});

  /// Stop() + join, if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the acceptor. IoError on bind failure
  /// (port taken, privileged port, bad host).
  Status Start();

  /// The bound port — the kernel's pick when options.port was 0. Valid
  /// after a successful Start().
  uint16_t port() const;

  /// Stops accepting, severs every connection, joins all threads. Queries
  /// already submitted keep running on the Session; their responses are
  /// dropped. Idempotent.
  void Stop();

  /// Connections currently open (gauge; for tests and the runbook).
  size_t num_connections() const;

  /// Per-connection accounting, exported over /varz.json for serve_top.
  /// Ids are stable anonymous integers assigned in accept order (no peer
  /// address is exported — the telemetry endpoints must stay safe to share).
  struct ConnectionStats {
    uint64_t id = 0;          ///< accept-order id, stable for the conn's life
    uint64_t queries = 0;     ///< QUERY frames received
    uint64_t stats_requests = 0;  ///< STATS frames received
    uint64_t overloaded = 0;  ///< layer-1 (per-connection cap) rejections
    uint64_t bytes_in = 0;    ///< bytes received from the peer
    uint64_t bytes_out = 0;   ///< frame bytes successfully written
    uint64_t inflight = 0;    ///< unanswered QUERYs right now
    uint64_t age_nanos = 0;   ///< since accept
    uint64_t idle_nanos = 0;  ///< since the last byte received
  };

  /// Snapshot of every open connection, unordered. Safe at any time; the
  /// gauges are relaxed reads of live counters (per-field accurate, not a
  /// consistent cut).
  std::vector<ConnectionStats> ConnectionsSnapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bwtk::serve

#endif  // BWTK_SERVE_SERVER_H_
