// Open-loop load over the serve wire protocol. One thread drives several
// non-blocking loopback connections with ppoll(2): each request is sent at
// its scheduled time and timed from that time, so a late sender or a
// stalled server shows up as latency, never as a lower offered rate.
//
// The client keeps to the in-flight cap each connection advertises in
// HELLO_ACK, as a well-behaved client of the protocol does: a request due
// while every connection has that many unanswered waits in the client, its
// wait counted in its latency, instead of drawing a kOverloaded answer.
// Without this, a host stall of some tens of ms at the `mid` rate was
// enough for the server to shed a few hundred requests.
//
// The thread sleeps in ppoll until the next due time or RESULT. Busy-polling
// instead took 20 µs off every p50, but a spinning vCPU keeps a host CPU
// busy: when the host was oversubscribed, the server's vCPUs lost up to a
// fifth of their time to steal and the mid rate started shedding load.

#ifndef KMBENCH_LOADGEN_H_
#define KMBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/wire.h"
#include "util/status.h"

namespace kmbench {

/// One request of a phase, as the client saw it.
/// Times are obs::TraceClockNanos() readings, the clock of the library's
/// trace spans.
struct RequestRecord {
  uint64_t scheduled_ns = 0;  ///< when the request was due
  uint64_t sent_ns = 0;       ///< its frame fully handed to the kernel
  uint64_t done_ns = 0;       ///< its RESULT parsed; 0 when none arrived
  bwtk::serve::WireStatus status = bwtk::serve::WireStatus::kInternal;
  uint32_t hits = 0;
  uint32_t result_bytes = 0;  ///< RESULT frame size, header included
  uint64_t digest = 0;        ///< HitsDigest of the returned hits
  // Stats trailer, present only when the phase asked for it.
  uint64_t queue_ns = 0;
  uint64_t search_ns = 0;
  uint64_t extend_calls = 0;
  uint64_t completed_paths = 0;
  uint64_t budget_pruned = 0;

  bool ok() const {
    return done_ns != 0 && status == bwtk::serve::WireStatus::kOk;
  }
  uint64_t latency_ns() const { return done_ns - scheduled_ns; }
};

struct PhaseOutcome {
  std::vector<RequestRecord> requests;  ///< request i carried query first + i
  uint64_t start_ns = 0;                ///< schedule origin
  uint64_t last_due_ns = 0;             ///< the last request's due time
  uint64_t drained_ns = 0;  ///< when the last RESULT arrived (or gave up)
  uint64_t frames = 0;      ///< RESULT frames received
  uint64_t recvs = 0;       ///< recv() calls that returned data
  std::string error;        ///< transport failure; empty when none
  uint64_t request_id_base = 0;  ///< request i went out as base | i
};

class OpenLoopClient {
 public:
  /// Opens `connections` loopback connections to `port` and handshakes.
  static bwtk::Result<std::unique_ptr<OpenLoopClient>> Connect(
      uint16_t port, int connections);

  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Sends request i, carrying patterns[first + i] with budget `k`, at
  /// start_ns + schedule[i], or as soon after as a connection is under its
  /// in-flight cap, round-robin over the connections, and waits for every
  /// RESULT — at most `drain_timeout_ns` after the last due time. A
  /// start_ns already in the past makes every request late by that much.
  PhaseOutcome Run(const std::vector<uint64_t>& schedule, uint64_t start_ns,
                   const PatternPool& patterns, size_t first,
                   int32_t k, bool want_stats, uint64_t drain_timeout_ns);

 private:
  struct Connection;
  OpenLoopClient() = default;

  std::vector<std::unique_ptr<Connection>> connections_;
  // Unanswered requests one connection may have: the server's cap.
  size_t max_inflight_ = 0;
  // High half of request ids: RESULTs of an earlier phase are told apart.
  uint64_t phase_ = 0;
};

}  // namespace kmbench

#endif  // KMBENCH_LOADGEN_H_
