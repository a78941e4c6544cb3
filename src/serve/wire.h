// Wire protocol of the TCP serving front-end (serve/server.h): a
// length-prefixed binary framing, fully specified in docs/SERVING.md — the
// doc is the normative reference; this header implements it.
//
// Framing: every message is one frame
//
//   u32  payload_length   (little-endian, excludes these 5 header bytes)
//   u8   frame_type       (FrameType)
//   ...  payload          (payload_length bytes)
//
// All integers on the wire are little-endian, fixed width, unaligned.
// Patterns travel as ASCII (the server decodes them for its configured
// engine, so wildcard syntax works when the Session runs kWildcard).
// Responses carry an explicit WireStatus byte whose values are frozen
// independently of the C++ StatusCode enum — reordering StatusCode can
// never silently change the protocol.
//
// The conversation (client side):
//   connect → send HELLO → read HELLO_ACK (version + engine + limits)
//   → send QUERY frames (each with a client-chosen request_id)
//   → read RESULT frames, matching request_id (responses may arrive in any
//     order; the server completes queries as its workers finish them)
//   → close the socket when done (no goodbye frame).
//
// Encoders append complete frames to a std::string buffer; FrameReader
// splits a receive stream back into frames incrementally; Parse* functions
// decode payloads with full bounds checking (a malformed payload is a
// kCorruption error, never UB).

#ifndef BWTK_SERVE_WIRE_H_
#define BWTK_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "search/match.h"
#include "serve/session.h"
#include "util/status.h"

namespace bwtk::serve {

/// First payload field of HELLO: "BWTK" read as a little-endian u32.
inline constexpr uint32_t kWireMagic = 0x4B545742u;

/// Protocol revision. Bumped on any incompatible change; the server
/// rejects HELLOs whose version it does not speak.
inline constexpr uint16_t kWireVersion = 1;

/// Default cap on a single frame's payload; both peers drop the
/// connection on a longer announced payload (defense against garbage
/// length prefixes, not a protocol limit).
inline constexpr size_t kDefaultMaxFramePayload = 1 << 20;

/// Frame type byte. Values are frozen wire constants.
enum class FrameType : uint8_t {
  kHello = 1,        ///< client → server, once, first frame
  kHelloAck = 2,     ///< server → client reply to HELLO
  kQuery = 3,        ///< client → server, one search request
  kResult = 4,       ///< server → client, one QUERY's outcome
  kStats = 5,        ///< client → server, gauges request (empty payload)
  kStatsResult = 6,  ///< server → client reply to STATS
};

/// Response status byte. Values are frozen wire constants, mapped
/// explicitly from StatusCode (ToWireStatus) — never cast an enum across.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,  ///< bad pattern/k, sharded window overflow
  kOverloaded = 2,       ///< server or connection shed the query; retry later
  kUnavailable = 3,      ///< session draining or stopped
  kTimedOut = 4,         ///< request_timeout elapsed before completion
  kInternal = 5,         ///< any other failure
};

/// Collapses a Status onto the wire vocabulary (unlisted codes → kInternal).
WireStatus ToWireStatus(const Status& status);

/// Reconstitutes a Status a client can surface (kOk → OK()).
Status FromWireStatus(WireStatus status, std::string message);

/// Engine byte carried by the QUERY engine-override trailer. Values are
/// frozen wire constants mapped explicitly to/from BatchEngine — like
/// WireStatus, never cast the C++ enum across (reordering BatchEngine must
/// never change the protocol).
enum class WireEngine : uint8_t {
  kAlgorithmA = 0,
  kSTree = 1,
  kKError = 2,
  kWildcard = 3,
  /// Reserved: the retired dictionary engine's id. No BatchEngine maps to
  /// it, and FromWireEngine answers it with kInvalidArgument.
  kDictionary = 4,
  kBidirectional = 5,
  kAuto = 6,
};

/// The frozen wire byte for `engine` (total: every BatchEngine maps).
WireEngine ToWireEngine(BatchEngine engine);

/// Decodes an engine byte; kInvalidArgument for the reserved id 4 and for
/// an id this build does not know (a newer client), which the server
/// surfaces as a typed RESULT error rather than dropping the connection.
Result<BatchEngine> FromWireEngine(uint8_t engine);

/// QUERY payload:
///   u64 request_id, i32 k, u32 pattern_length, pattern bytes (ASCII),
///   [optional u8 query_flags,
///    [u8 engine, present iff bit 1 (kQueryFlagEngineOverride) is set]].
/// The flags byte is a backward-compatible trailer: clients that never set
/// a flag omit it entirely (byte-identical to the version-1 encoding), and
/// a missing trailer parses as all-zero flags. Bit 0 (kQueryFlagWantStats)
/// asks the server to attach the per-query stats block to the RESULT.
/// Bit 1 (kQueryFlagEngineOverride) appends one WireEngine byte AFTER the
/// flags byte (append-at-END, docs/SERVING.md §4.4): this query runs under
/// that engine instead of the session's configured one; the server answers
/// kInvalidArgument when the engine is not available (e.g. bidirectional
/// without bidirectional indexes).
struct QueryRequest {
  uint64_t request_id = 0;  ///< client-chosen; echoed in the RESULT
  int32_t k = 0;
  std::string pattern;
  bool want_stats = false;  ///< request the RESULT stats trailer
  /// Per-query engine override (bit 1 + trailing engine byte when set).
  std::optional<BatchEngine> engine_override;

  bool operator==(const QueryRequest&) const = default;
};

/// QUERY flags-byte bits.
inline constexpr uint8_t kQueryFlagWantStats = 1u << 0;
inline constexpr uint8_t kQueryFlagEngineOverride = 1u << 1;

/// RESULT flags-byte bits.
inline constexpr uint8_t kResultFlagCacheServed = 1u << 0;

/// RESULT payload:
///   u64 request_id, u8 status, u32 message_length, message bytes,
///   u32 num_hits, num_hits × { u64 position, i32 mismatches },
///   [optional stats trailer, present iff the QUERY set
///    kQueryFlagWantStats:
///      u8 result_flags (bit 0 = served from the result cache),
///      9 × u64 SearchStats in declaration order (stree_nodes,
///      extend_calls, completed_paths, tau_pruned, budget_pruned,
///      mtree_nodes, mtree_leaves, reused_nodes, derived_runs),
///      u64 queue_ns, u64 search_ns].
/// Hits are position-sorted, byte-identical to the direct engine's output
/// whether or not the trailer is present — the trailer only *describes*
/// the execution, it never changes it.
struct QueryResponse {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;  ///< empty on kOk
  std::vector<Occurrence> hits;
  bool has_stats = false;     ///< the trailer below is populated
  bool cache_served = false;  ///< hits came from the result cache
  SearchStats stats;          ///< zero when cache-served sharded (see docs)
  uint64_t queue_ns = 0;      ///< submit → worker pickup
  uint64_t search_ns = 0;     ///< engine execution (or cache lookup) time

  bool operator==(const QueryResponse&) const = default;
};

/// HELLO_ACK payload:
///   u16 version, u32 max_inflight (per-connection admission cap),
///   u8 engine_length, engine name bytes, u8 sharded (0/1).
struct HelloAck {
  uint16_t version = kWireVersion;
  uint32_t max_inflight = 0;
  std::string engine;
  bool sharded = false;

  bool operator==(const HelloAck&) const = default;
};

// --- Encoders (append one complete frame, header included) ---------------

void AppendHelloFrame(std::string* out);
void AppendHelloAckFrame(const HelloAck& ack, std::string* out);
void AppendQueryFrame(const QueryRequest& request, std::string* out);
void AppendResultFrame(const QueryResponse& response, std::string* out);
void AppendStatsFrame(std::string* out);
/// STATS_RESULT payload (count-prefixed since the telemetry revision):
///   u32 field_count, field_count × u64.
/// Fields travel in this order — queue_depth, running, inflight,
/// submitted, completed, rejected_overloaded, rejected_unavailable,
/// reserved (slot 8, formerly the subtree memo's hit count: servers send
/// 0, parsers ignore it), result_cache_hits, result_cache_misses,
/// shard_exact_shortcuts, accepting (0/1) — currently
/// kStatsResultFieldCount of them. Evolution rule (normative text in
/// docs/SERVING.md): new fields append at the END only; parsers zero-fill
/// fields beyond the sender's count and skip fields beyond their own
/// knowledge, so old clients read new servers and vice versa.
void AppendStatsResultFrame(const SessionStats& stats, std::string* out);

/// Fields AppendStatsResultFrame emits / ParseStatsResultPayload knows.
inline constexpr uint32_t kStatsResultFieldCount = 12;

// --- Decoders ------------------------------------------------------------

/// One de-framed message.
struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

/// Incremental frame splitter: feed whatever the socket produced, pop
/// complete frames. Not thread-safe (one per connection direction).
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Buffers `n` received bytes.
  void Feed(const char* data, size_t n);

  /// The next complete frame, nullopt when more bytes are needed, or
  /// kCorruption when the stream announces a payload over the cap (the
  /// connection is unrecoverable — close it).
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet returned as frames.
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  size_t max_payload_;
};

/// Payload parsers: bounds-checked, kCorruption on any malformed payload.
Status ValidateHelloPayload(std::string_view payload);
Result<HelloAck> ParseHelloAckPayload(std::string_view payload);
Result<QueryRequest> ParseQueryPayload(std::string_view payload);
Result<QueryResponse> ParseResultPayload(std::string_view payload);
Result<SessionStats> ParseStatsResultPayload(std::string_view payload);

/// Writes all of `data` to the socket `fd`, looping over partial sends and
/// EINTR. MSG_NOSIGNAL turns a peer hang-up into a false return instead of
/// a SIGPIPE. Blocks while the socket buffer is full.
bool SendAll(int fd, std::string_view data);

}  // namespace bwtk::serve

#endif  // BWTK_SERVE_WIRE_H_
