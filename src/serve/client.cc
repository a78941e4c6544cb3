#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace bwtk::serve {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                size_t max_frame_payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect to " + host + ":" + std::to_string(port) +
                           ": " + error);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::unique_ptr<Client> client(new Client());
  client->fd_ = fd;
  client->reader_ = FrameReader(max_frame_payload);
  std::string hello;
  AppendHelloFrame(&hello);
  BWTK_RETURN_IF_ERROR(client->SendFrame(hello));
  BWTK_ASSIGN_OR_RETURN(const Frame ack,
                        client->ReceiveFrame(FrameType::kHelloAck));
  BWTK_ASSIGN_OR_RETURN(client->hello_, ParseHelloAckPayload(ack.payload));
  if (client->hello_.version != kWireVersion) {
    return Status::InvalidArgument(
        "server speaks wire version " +
        std::to_string(client->hello_.version) + ", this client speaks " +
        std::to_string(kWireVersion));
  }
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendFrame(std::string_view frame) {
  if (!SendAll(fd_, frame)) {
    return Status::IoError("send: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<Frame> Client::ReceiveFrame(FrameType want) {
  char buffer[64 * 1024];
  for (;;) {
    Result<std::optional<Frame>> next = reader_.Next();
    BWTK_RETURN_IF_ERROR(next.status());
    if (next.value().has_value()) {
      Frame frame = std::move(next.value()).value();
      if (frame.type != want) {
        return Status::Corruption(
            "unexpected frame type " +
            std::to_string(static_cast<int>(frame.type)) + " (wanted " +
            std::to_string(static_cast<int>(want)) + ")");
      }
      return frame;
    }
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return Status::IoError("server closed the connection");
    if (n < 0) {
      return Status::IoError("recv: " + std::string(std::strerror(errno)));
    }
    reader_.Feed(buffer, static_cast<size_t>(n));
  }
}

Result<uint64_t> Client::SendQuery(std::string_view pattern, int32_t k,
                                   bool want_stats,
                                   std::optional<BatchEngine> engine) {
  QueryRequest request;
  request.request_id = next_request_id_++;
  request.k = k;
  request.pattern.assign(pattern);
  request.want_stats = want_stats;
  request.engine_override = engine;
  std::string frame;
  AppendQueryFrame(request, &frame);
  BWTK_RETURN_IF_ERROR(SendFrame(frame));
  return request.request_id;
}

Result<QueryResponse> Client::ReceiveResponse() {
  if (!queued_.empty()) {
    QueryResponse response = std::move(queued_.front());
    queued_.erase(queued_.begin());
    return response;
  }
  BWTK_ASSIGN_OR_RETURN(const Frame frame, ReceiveFrame(FrameType::kResult));
  return ParseResultPayload(frame.payload);
}

Result<QueryResponse> Client::Query(std::string_view pattern, int32_t k,
                                    bool want_stats,
                                    std::optional<BatchEngine> engine) {
  BWTK_ASSIGN_OR_RETURN(const uint64_t request_id,
                        SendQuery(pattern, k, want_stats, engine));
  // Responses come back in completion order; park any that belong to other
  // outstanding pipelined requests.
  for (size_t i = 0; i < queued_.size(); ++i) {
    if (queued_[i].request_id == request_id) {
      QueryResponse response = std::move(queued_[i]);
      queued_.erase(queued_.begin() + static_cast<ptrdiff_t>(i));
      return response;
    }
  }
  for (;;) {
    BWTK_ASSIGN_OR_RETURN(const Frame frame, ReceiveFrame(FrameType::kResult));
    BWTK_ASSIGN_OR_RETURN(QueryResponse response,
                          ParseResultPayload(frame.payload));
    if (response.request_id == request_id) return response;
    queued_.push_back(std::move(response));
  }
}

Result<SessionStats> Client::GetStats() {
  std::string frame;
  AppendStatsFrame(&frame);
  BWTK_RETURN_IF_ERROR(SendFrame(frame));
  BWTK_ASSIGN_OR_RETURN(const Frame reply,
                        ReceiveFrame(FrameType::kStatsResult));
  return ParseStatsResultPayload(reply.payload);
}

}  // namespace bwtk::serve
