#include "serve/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace bwtk::serve {

namespace {

// Little-endian primitive writers. memcpy keeps them alignment-safe; the
// byte order is the host's on every supported target (the build asserts
// little-endian in CMake for the serialized index format already).
template <typename T>
void PutInt(T value, std::string* out) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

// Bounds-checked little-endian reader over a payload cursor.
struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  template <typename T>
  bool Read(T* value) {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(value, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (size - pos < n) return false;
    out->assign(data + pos, n);
    pos += n;
    return true;
  }

  bool AtEnd() const { return pos == size; }
};

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed ") + what + " payload");
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  PutInt(static_cast<uint32_t>(payload.size()), out);
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

}  // namespace

WireStatus ToWireStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kOverloaded:
      return WireStatus::kOverloaded;
    case StatusCode::kUnavailable:
      return WireStatus::kUnavailable;
    case StatusCode::kTimedOut:
      return WireStatus::kTimedOut;
    default:
      return WireStatus::kInternal;
  }
}

WireEngine ToWireEngine(BatchEngine engine) {
  switch (engine) {
    case BatchEngine::kAlgorithmA:
      return WireEngine::kAlgorithmA;
    case BatchEngine::kSTree:
      return WireEngine::kSTree;
    case BatchEngine::kKError:
      return WireEngine::kKError;
    case BatchEngine::kWildcard:
      return WireEngine::kWildcard;
    case BatchEngine::kBidirectional:
      return WireEngine::kBidirectional;
    case BatchEngine::kAuto:
      return WireEngine::kAuto;
  }
  return WireEngine::kAlgorithmA;
}

Result<BatchEngine> FromWireEngine(uint8_t engine) {
  switch (static_cast<WireEngine>(engine)) {
    case WireEngine::kAlgorithmA:
      return BatchEngine::kAlgorithmA;
    case WireEngine::kSTree:
      return BatchEngine::kSTree;
    case WireEngine::kKError:
      return BatchEngine::kKError;
    case WireEngine::kWildcard:
      return BatchEngine::kWildcard;
    case WireEngine::kDictionary:
      return Status::InvalidArgument(
          "wire engine id 4 (dictionary) is retired; send pattern sets as "
          "auto or bidirectional queries");
    case WireEngine::kBidirectional:
      return BatchEngine::kBidirectional;
    case WireEngine::kAuto:
      return BatchEngine::kAuto;
  }
  return Status::InvalidArgument("unknown wire engine id " +
                                 std::to_string(engine));
}

Status FromWireStatus(WireStatus status, std::string message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireStatus::kOverloaded:
      return Status::Overloaded(std::move(message));
    case WireStatus::kUnavailable:
      return Status::Unavailable(std::move(message));
    case WireStatus::kTimedOut:
      return Status::TimedOut(std::move(message));
    case WireStatus::kInternal:
      break;
  }
  return Status::Internal(std::move(message));
}

void AppendHelloFrame(std::string* out) {
  std::string payload;
  PutInt(kWireMagic, &payload);
  PutInt(kWireVersion, &payload);
  PutInt(static_cast<uint16_t>(0), &payload);  // reserved
  AppendFrame(FrameType::kHello, payload, out);
}

void AppendHelloAckFrame(const HelloAck& ack, std::string* out) {
  std::string payload;
  PutInt(ack.version, &payload);
  PutInt(ack.max_inflight, &payload);
  payload.push_back(static_cast<char>(ack.engine.size()));
  payload.append(ack.engine);
  payload.push_back(ack.sharded ? 1 : 0);
  AppendFrame(FrameType::kHelloAck, payload, out);
}

void AppendQueryFrame(const QueryRequest& request, std::string* out) {
  std::string payload;
  PutInt(request.request_id, &payload);
  PutInt(request.k, &payload);
  PutInt(static_cast<uint32_t>(request.pattern.size()), &payload);
  payload.append(request.pattern);
  // Flags trailer only when a flag is set: a flagless QUERY stays
  // byte-identical to the pre-trailer encoding, so old servers still
  // accept it. The engine byte rides AFTER the flags byte (append-at-END).
  uint8_t flags = 0;
  if (request.want_stats) flags |= kQueryFlagWantStats;
  if (request.engine_override.has_value()) flags |= kQueryFlagEngineOverride;
  if (flags != 0) {
    payload.push_back(static_cast<char>(flags));
    if (request.engine_override.has_value()) {
      payload.push_back(
          static_cast<char>(ToWireEngine(*request.engine_override)));
    }
  }
  AppendFrame(FrameType::kQuery, payload, out);
}

void AppendResultFrame(const QueryResponse& response, std::string* out) {
  std::string payload;
  PutInt(response.request_id, &payload);
  payload.push_back(static_cast<char>(response.status));
  PutInt(static_cast<uint32_t>(response.message.size()), &payload);
  payload.append(response.message);
  PutInt(static_cast<uint32_t>(response.hits.size()), &payload);
  for (const Occurrence& hit : response.hits) {
    PutInt(static_cast<uint64_t>(hit.position), &payload);
    PutInt(hit.mismatches, &payload);
  }
  if (response.has_stats) {
    uint8_t flags = 0;
    if (response.cache_served) flags |= kResultFlagCacheServed;
    payload.push_back(static_cast<char>(flags));
    PutInt(response.stats.stree_nodes, &payload);
    PutInt(response.stats.extend_calls, &payload);
    PutInt(response.stats.completed_paths, &payload);
    PutInt(response.stats.tau_pruned, &payload);
    PutInt(response.stats.budget_pruned, &payload);
    PutInt(response.stats.mtree_nodes, &payload);
    PutInt(response.stats.mtree_leaves, &payload);
    PutInt(response.stats.reused_nodes, &payload);
    PutInt(response.stats.derived_runs, &payload);
    PutInt(response.queue_ns, &payload);
    PutInt(response.search_ns, &payload);
  }
  AppendFrame(FrameType::kResult, payload, out);
}

void AppendStatsFrame(std::string* out) {
  AppendFrame(FrameType::kStats, {}, out);
}

void AppendStatsResultFrame(const SessionStats& stats, std::string* out) {
  std::string payload;
  PutInt(kStatsResultFieldCount, &payload);
  PutInt(static_cast<uint64_t>(stats.queue_depth), &payload);
  PutInt(static_cast<uint64_t>(stats.running), &payload);
  PutInt(static_cast<uint64_t>(stats.inflight), &payload);
  PutInt(stats.submitted, &payload);
  PutInt(stats.completed, &payload);
  PutInt(stats.rejected_overloaded, &payload);
  PutInt(stats.rejected_unavailable, &payload);
  PutInt(static_cast<uint64_t>(0), &payload);  // slot 8: reserved, always 0
  PutInt(stats.result_cache_hits, &payload);
  PutInt(stats.result_cache_misses, &payload);
  PutInt(stats.shard_exact_shortcuts, &payload);
  PutInt(static_cast<uint64_t>(stats.accepting ? 1 : 0), &payload);
  AppendFrame(FrameType::kStatsResult, payload, out);
}

void FrameReader::Feed(const char* data, size_t n) {
  // Reclaim the consumed prefix before growing; keeps the buffer at the
  // size of the partial frame, not the whole connection history.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

Result<std::optional<Frame>> FrameReader::Next() {
  const size_t available = buffer_.size() - consumed_;
  if (available < 5) return std::optional<Frame>{};
  uint32_t payload_length = 0;
  std::memcpy(&payload_length, buffer_.data() + consumed_, 4);
  if (payload_length > max_payload_) {
    return Status::Corruption("frame payload of " +
                              std::to_string(payload_length) +
                              " bytes exceeds the " +
                              std::to_string(max_payload_) + "-byte cap");
  }
  if (available < 5 + static_cast<size_t>(payload_length)) {
    return std::optional<Frame>{};
  }
  Frame frame;
  frame.type =
      static_cast<FrameType>(static_cast<uint8_t>(buffer_[consumed_ + 4]));
  frame.payload.assign(buffer_, consumed_ + 5, payload_length);
  consumed_ += 5 + payload_length;
  return std::optional<Frame>{std::move(frame)};
}

Status ValidateHelloPayload(std::string_view payload) {
  Cursor cursor{payload.data(), payload.size()};
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  if (!cursor.Read(&magic) || !cursor.Read(&version) ||
      !cursor.Read(&reserved) || !cursor.AtEnd()) {
    return Malformed("HELLO");
  }
  if (magic != kWireMagic) {
    return Status::Corruption("bad HELLO magic (not a bwtk client?)");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(version) +
        " (server speaks " + std::to_string(kWireVersion) + ")");
  }
  return Status::OK();
}

Result<HelloAck> ParseHelloAckPayload(std::string_view payload) {
  Cursor cursor{payload.data(), payload.size()};
  HelloAck ack;
  uint8_t engine_length = 0;
  uint8_t sharded = 0;
  if (!cursor.Read(&ack.version) || !cursor.Read(&ack.max_inflight) ||
      !cursor.Read(&engine_length) ||
      !cursor.ReadBytes(engine_length, &ack.engine) ||
      !cursor.Read(&sharded) || !cursor.AtEnd()) {
    return Malformed("HELLO_ACK");
  }
  ack.sharded = sharded != 0;
  return ack;
}

Result<QueryRequest> ParseQueryPayload(std::string_view payload) {
  Cursor cursor{payload.data(), payload.size()};
  QueryRequest request;
  uint32_t pattern_length = 0;
  if (!cursor.Read(&request.request_id) || !cursor.Read(&request.k) ||
      !cursor.Read(&pattern_length) ||
      !cursor.ReadBytes(pattern_length, &request.pattern)) {
    return Malformed("QUERY");
  }
  // Optional flags trailer; absent means all flags clear (version-1
  // clients never send it). Bit 1 pulls one engine byte after the flags.
  if (!cursor.AtEnd()) {
    uint8_t flags = 0;
    if (!cursor.Read(&flags)) return Malformed("QUERY");
    request.want_stats = (flags & kQueryFlagWantStats) != 0;
    if ((flags & kQueryFlagEngineOverride) != 0) {
      uint8_t engine = 0;
      if (!cursor.Read(&engine)) return Malformed("QUERY");
      BWTK_ASSIGN_OR_RETURN(request.engine_override, FromWireEngine(engine));
    }
    if (!cursor.AtEnd()) return Malformed("QUERY");
  }
  return request;
}

Result<QueryResponse> ParseResultPayload(std::string_view payload) {
  Cursor cursor{payload.data(), payload.size()};
  QueryResponse response;
  uint8_t status = 0;
  uint32_t message_length = 0;
  uint32_t num_hits = 0;
  if (!cursor.Read(&response.request_id) || !cursor.Read(&status) ||
      !cursor.Read(&message_length) ||
      !cursor.ReadBytes(message_length, &response.message) ||
      !cursor.Read(&num_hits)) {
    return Malformed("RESULT");
  }
  response.status = static_cast<WireStatus>(status);
  // 12 bytes per hit; the remaining-size check rejects a lying num_hits
  // before the reserve can balloon.
  if ((payload.size() - cursor.pos) / 12 < num_hits) {
    return Malformed("RESULT");
  }
  response.hits.reserve(num_hits);
  for (uint32_t i = 0; i < num_hits; ++i) {
    uint64_t position = 0;
    int32_t mismatches = 0;
    if (!cursor.Read(&position) || !cursor.Read(&mismatches)) {
      return Malformed("RESULT");
    }
    response.hits.push_back(
        Occurrence{static_cast<size_t>(position), mismatches});
  }
  // Optional stats trailer: flags byte + 9 stats fields + two timings.
  // Absent means the query did not ask for it.
  if (!cursor.AtEnd()) {
    uint8_t flags = 0;
    if (!cursor.Read(&flags) || !cursor.Read(&response.stats.stree_nodes) ||
        !cursor.Read(&response.stats.extend_calls) ||
        !cursor.Read(&response.stats.completed_paths) ||
        !cursor.Read(&response.stats.tau_pruned) ||
        !cursor.Read(&response.stats.budget_pruned) ||
        !cursor.Read(&response.stats.mtree_nodes) ||
        !cursor.Read(&response.stats.mtree_leaves) ||
        !cursor.Read(&response.stats.reused_nodes) ||
        !cursor.Read(&response.stats.derived_runs) ||
        !cursor.Read(&response.queue_ns) || !cursor.Read(&response.search_ns) ||
        !cursor.AtEnd()) {
      return Malformed("RESULT");
    }
    response.has_stats = true;
    response.cache_served = (flags & kResultFlagCacheServed) != 0;
  }
  return response;
}

Result<SessionStats> ParseStatsResultPayload(std::string_view payload) {
  Cursor cursor{payload.data(), payload.size()};
  uint32_t count = 0;
  if (!cursor.Read(&count)) return Malformed("STATS_RESULT");
  // The count is authoritative: the payload must hold exactly that many
  // u64s. A newer server may send more fields than we know (we skip the
  // extras); an older one fewer (the missing ones stay zero).
  if (payload.size() - cursor.pos != static_cast<size_t>(count) * 8) {
    return Malformed("STATS_RESULT");
  }
  uint64_t fields[kStatsResultFieldCount] = {};
  const uint32_t known = count < kStatsResultFieldCount
                             ? count
                             : kStatsResultFieldCount;
  for (uint32_t i = 0; i < known; ++i) {
    if (!cursor.Read(&fields[i])) return Malformed("STATS_RESULT");
  }
  SessionStats stats;
  stats.queue_depth = static_cast<size_t>(fields[0]);
  stats.running = static_cast<size_t>(fields[1]);
  stats.inflight = static_cast<size_t>(fields[2]);
  stats.submitted = fields[3];
  stats.completed = fields[4];
  stats.rejected_overloaded = fields[5];
  stats.rejected_unavailable = fields[6];
  // fields[7] is reserved slot 8: ignored (see wire.h).
  stats.result_cache_hits = fields[8];
  stats.result_cache_misses = fields[9];
  stats.shard_exact_shortcuts = fields[10];
  stats.accepting = fields[11] != 0;
  return stats;
}

bool SendAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace bwtk::serve
