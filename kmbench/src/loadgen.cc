#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "obs/trace.h"
#include "oracle.h"

namespace kmbench {

using bwtk::obs::TraceClockNanos;

namespace wire = bwtk::serve;

struct OpenLoopClient::Connection {
  int fd = -1;
  std::string out;     // encoded QUERY frames not yet fully sent
  size_t out_off = 0;  // bytes of `out` already sent
  // (end offset in `out`, request index) of frames not yet fully sent.
  std::vector<std::pair<size_t, size_t>> unsent;
  size_t unsent_head = 0;
  // Requests queued or sent whose RESULT has not come back, over every
  // phase: the server's count of them never exceeds this one.
  size_t inflight = 0;
  wire::FrameReader reader;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

bwtk::Result<std::unique_ptr<OpenLoopClient>> OpenLoopClient::Connect(
    uint16_t port, int connections) {
  std::unique_ptr<OpenLoopClient> client(new OpenLoopClient());
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return bwtk::Status::IoError(Errno("socket"));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return bwtk::Status::IoError(Errno("connect"));
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string hello;
    wire::AppendHelloFrame(&hello);
    if (::send(conn->fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size())) {
      return bwtk::Status::IoError(Errno("send HELLO"));
    }
    for (;;) {
      BWTK_ASSIGN_OR_RETURN(std::optional<wire::Frame> frame,
                            conn->reader.Next());
      if (frame.has_value()) {
        if (frame->type != wire::FrameType::kHelloAck) {
          return bwtk::Status::Corruption("expected HELLO_ACK");
        }
        BWTK_ASSIGN_OR_RETURN(const wire::HelloAck ack,
                              wire::ParseHelloAckPayload(frame->payload));
        const size_t cap = ack.max_inflight == 0
                               ? std::numeric_limits<size_t>::max()
                               : ack.max_inflight;
        client->max_inflight_ =
            i == 0 ? cap : std::min(client->max_inflight_, cap);
        break;
      }
      char buf[512];
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n <= 0) return bwtk::Status::IoError(Errno("recv HELLO_ACK"));
      conn->reader.Feed(buf, static_cast<size_t>(n));
    }
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    client->connections_.push_back(std::move(conn));
  }
  return client;
}

OpenLoopClient::~OpenLoopClient() = default;

PhaseOutcome OpenLoopClient::Run(const std::vector<uint64_t>& schedule,
                                 uint64_t start_ns,
                                 const PatternPool& patterns,
                                 size_t first, int32_t k, bool want_stats,
                                 uint64_t drain_timeout_ns) {
  // The default 50 us timer slack would make every wake-up, and so every
  // send, late by about that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const uint64_t phase = ++phase_;
  const size_t n = schedule.size();
  PhaseOutcome outcome;
  outcome.requests.resize(n);
  outcome.start_ns = start_ns;
  outcome.request_id_base = phase << 32;
  outcome.last_due_ns = n == 0 ? start_ns : start_ns + schedule.back();
  const size_t num_conns = connections_.size();
  std::vector<pollfd> fds(num_conns);
  std::vector<char> buf(1 << 16);
  size_t due = 0;   // requests [0, due) are due
  size_t next = 0;  // requests [0, next) are handed to a connection
  size_t answered = 0;
  size_t turn = 0;  // round-robin position over the connections
  uint64_t deadline = 0;  // set once every request is due

  auto flush = [&](Connection& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          outcome.error = Errno("send");
        }
        break;
      }
      c.out_off += static_cast<size_t>(w);
    }
    const uint64_t now = TraceClockNanos();
    while (c.unsent_head < c.unsent.size() &&
           c.unsent[c.unsent_head].first <= c.out_off) {
      outcome.requests[c.unsent[c.unsent_head].second].sent_ns = now;
      ++c.unsent_head;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
      c.unsent.clear();
      c.unsent_head = 0;
    }
  };

  auto receive = [&](Connection& c) {
    for (;;) {
      const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (r == 0) {
        outcome.error = "server closed the connection";
        return;
      }
      if (r < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          outcome.error = Errno("recv");
        }
        return;
      }
      const uint64_t now = TraceClockNanos();
      ++outcome.recvs;
      c.reader.Feed(buf.data(), static_cast<size_t>(r));
      for (;;) {
        auto frame = c.reader.Next();
        if (!frame.ok()) {
          outcome.error = frame.status().ToString();
          return;
        }
        if (!frame->has_value()) break;
        const wire::Frame& f = **frame;
        if (f.type != wire::FrameType::kResult) continue;
        auto response = wire::ParseResultPayload(f.payload);
        if (!response.ok()) {
          outcome.error = response.status().ToString();
          return;
        }
        if (c.inflight > 0) --c.inflight;
        const uint64_t id = response->request_id;
        const size_t index = id & 0xffffffffu;
        if ((id >> 32) != phase || index >= n) continue;  // a stale phase
        RequestRecord& rec = outcome.requests[index];
        if (rec.done_ns != 0) continue;
        rec.done_ns = now;
        rec.status = response->status;
        rec.hits = static_cast<uint32_t>(response->hits.size());
        rec.result_bytes = static_cast<uint32_t>(f.payload.size() + 5);
        rec.digest = HitsDigest(response->hits);
        rec.queue_ns = response->queue_ns;
        rec.search_ns = response->search_ns;
        rec.extend_calls = response->stats.extend_calls;
        rec.completed_paths = response->stats.completed_paths;
        rec.budget_pruned = response->stats.budget_pruned;
        ++outcome.frames;
        ++answered;
      }
    }
  };

  while (outcome.error.empty()) {
    uint64_t now = TraceClockNanos();
    while (due < n && start_ns + schedule[due] <= now) {
      outcome.requests[due].scheduled_ns = start_ns + schedule[due];
      ++due;
    }
    while (next < due) {
      // The next connection in turn with room under the cap; none has
      // room only while the server holds the cap's worth on every one.
      Connection* room = nullptr;
      for (size_t j = 0; j < num_conns && room == nullptr; ++j) {
        Connection& c = *connections_[(turn + j) % num_conns];
        if (c.inflight < max_inflight_) {
          room = &c;
          turn += j + 1;
        }
      }
      if (room == nullptr) break;
      Connection& c = *room;
      ++c.inflight;
      wire::QueryRequest query;
      query.request_id = outcome.request_id_base | next;
      query.k = k;
      query.pattern = patterns[first + next];
      query.want_stats = want_stats;
      wire::AppendQueryFrame(query, &c.out);
      c.unsent.emplace_back(c.out.size(), next);
      ++next;
    }
    for (auto& c : connections_) flush(*c);
    if (due == n) {
      if (deadline == 0) deadline = now + drain_timeout_ns;
      if (answered == n || now >= deadline) break;
    }
    // Requests held at the cap go out when a RESULT frees a slot.
    const uint64_t wake = due < n ? start_ns + schedule[due] : deadline;
    const uint64_t wait = wake > now ? wake - now : 0;
    const timespec timeout{static_cast<time_t>(wait / 1000000000),
                           static_cast<long>(wait % 1000000000)};
    for (size_t i = 0; i < num_conns; ++i) {
      const Connection& c = *connections_[i];
      fds[i] = {c.fd,
                static_cast<short>(POLLIN |
                                   (c.out_off < c.out.size() ? POLLOUT : 0)),
                0};
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      outcome.error = Errno("ppoll");
      break;
    }
    for (size_t i = 0; i < num_conns; ++i) {
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        receive(*connections_[i]);
      }
    }
  }
  outcome.drained_ns = TraceClockNanos();
  // Frames still queued when the phase gives up belong to it: their
  // requests stay unsent, so they count as failed here, as do requests
  // still held at the cap. The queued bytes still go out, or the stream
  // would break mid-frame; an answer to them comes back under this phase's
  // id, frees its slot, and a later phase drops it.
  for (auto& c : connections_) {
    while (c->out_off < c->out.size()) {
      pollfd fd{c->fd, POLLOUT, 0};
      if (::poll(&fd, 1, 1000) <= 0) break;
      const ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
      if (w > 0) c->out_off += static_cast<size_t>(w);
    }
    // Frames that never went out whole will not be answered.
    for (size_t i = c->unsent_head; i < c->unsent.size(); ++i) {
      if (c->unsent[i].first > c->out_off && c->inflight > 0) --c->inflight;
    }
    c->out.clear();
    c->out_off = 0;
    c->unsent.clear();
    c->unsent_head = 0;
  }
  return outcome;
}

}  // namespace kmbench
