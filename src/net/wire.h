#ifndef HOSR_NET_WIRE_H_
#define HOSR_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace hosr::net {

// The hosr::net wire protocol (docs/SERVING.md "Network serving"): versioned,
// length-prefixed binary frames over a plain TCP stream. Every frame is
//
//   offset  size  field
//        0     4  magic        0x48534E31 ("HSN1"), little-endian
//        4     2  version      protocol version (kWireVersion)
//        6     2  type         FrameType
//        8     4  payload_size bytes of payload that follow the header
//       12     4  payload_crc  CRC-32 (util::Crc32) of the payload bytes
//
// followed by exactly payload_size payload bytes. All integers are
// little-endian regardless of host order: frames and payloads go through
// util::ByteWriter and util::ByteReader, the codec every binary artifact
// shares. Decoding is strict: a wrong magic, unsupported version,
// payload_size above kMaxPayload, or CRC mismatch is a clean Status error
// (never UB), and because the stream is desynchronized after any of them
// the connection must be closed.
//
// Requests and responses are order-matched per connection: the server
// answers frames in arrival order, so a response needs no request id on
// the wire (the request's trace_id still rides server-side through
// obs::RequestContext for spans and exemplars).

inline constexpr uint32_t kWireMagic = 0x48534E31;  // "HSN1"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;
// Upper bound on a single payload: top-K responses are ~8 bytes per item,
// so 4 MiB covers K up to ~500k — far beyond any sane request — while
// bounding what a garbage length prefix can make a peer allocate.
inline constexpr uint32_t kMaxPayload = 4u << 20;

enum class FrameType : uint16_t {
  kQuery = 1,      // QueryRequest payload
  kQueryReply = 2, // QueryResponse payload
  kInfo = 3,       // empty payload; asks for the server's model metadata
  kInfoReply = 4,  // ServerInfo payload
};

// A decoded frame: type as sent (may be a value outside FrameType — the
// dispatch layer rejects unknown types) plus the CRC-verified payload.
struct Frame {
  uint16_t type = 0;
  std::string payload;
};

// Top-K query. deadline_ms is a relative client budget (0 = none) that the
// server converts to an absolute deadline at decode time and threads into
// the engine's per-block deadline checks. flags bits are reserved and
// ignored by version-1 servers.
struct QueryRequest {
  uint64_t trace_id = 0;
  uint32_t user = 0;
  uint32_t k = 0;
  uint32_t deadline_ms = 0;
  uint32_t flags = 0;
};

// QueryResponse.flags bits.
inline constexpr uint32_t kResponseFromCache = 1u << 0;
inline constexpr uint32_t kResponseDegraded = 1u << 1;

// Served ranking or error. status_code is the numeric util::StatusCode; on
// error items/scores are empty and message carries the status message.
struct QueryResponse {
  uint32_t status_code = 0;
  uint32_t flags = 0;
  std::vector<uint32_t> items;
  std::vector<float> scores;  // same length as items
  std::string message;
};

// kInfoReply payload: enough model metadata for a remote load generator to
// synthesize a valid request stream without local snapshot access.
struct ServerInfo {
  uint32_t num_users = 0;
  uint32_t num_items = 0;
  uint32_t dim = 0;
  std::string model_name;
};

// Frames `payload` with a header (type, size, CRC).
std::string EncodeFrame(FrameType type, std::string_view payload);

// Incremental decode from a receive buffer: returns the number of bytes
// consumed (> 0) with `*frame` filled, 0 when the buffer does not yet hold
// a complete frame (read more and retry), or a Status error for a stream
// that can never resync (bad magic/version/CRC, oversized length).
util::StatusOr<size_t> TryDecodeFrame(std::string_view buffer, Frame* frame);

// Payload (de)serializers. Decoders are strict: a payload whose size does
// not exactly match its declared contents is InvalidArgument.
std::string EncodeQueryRequest(const QueryRequest& request);
util::StatusOr<QueryRequest> DecodeQueryRequest(std::string_view payload);

std::string EncodeQueryResponse(const QueryResponse& response);
util::StatusOr<QueryResponse> DecodeQueryResponse(std::string_view payload);

std::string EncodeServerInfo(const ServerInfo& info);
util::StatusOr<ServerInfo> DecodeServerInfo(std::string_view payload);

// Reads exactly one frame from `fd` (header, then payload, then CRC
// verification). Transport statuses pass through from net::RecvExact*;
// `clean_eof` (optional) is set true when the peer closed cleanly before
// the first header byte — the normal end of a persistent connection.
util::StatusOr<Frame> ReadFrame(int fd, bool* clean_eof = nullptr);

// Convenience: status of a response decoded off the wire (OK when
// status_code is kOk, otherwise the code + message as a util::Status).
util::Status ResponseStatus(const QueryResponse& response);

}  // namespace hosr::net

#endif  // HOSR_NET_WIRE_H_
