#include "net/wire.h"

#include "net/socket.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace hosr::net {

namespace {

util::Status Malformed(const char* what) {
  return util::Status::InvalidArgument(
      util::StrFormat("malformed %s payload", what));
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  util::ByteWriter writer(&out);
  writer.Put(kWireMagic);
  writer.Put(kWireVersion);
  writer.Put(static_cast<uint16_t>(type));
  writer.Put(static_cast<uint32_t>(payload.size()));
  writer.Put(util::Crc32(payload));
  writer.PutBytes(payload);
  return out;
}

util::StatusOr<size_t> TryDecodeFrame(std::string_view buffer, Frame* frame) {
  util::ByteReader reader(buffer);
  uint32_t magic = 0, payload_size = 0, payload_crc = 0;
  uint16_t version = 0, type = 0;
  if (!reader.Get(&magic) || !reader.Get(&version) || !reader.Get(&type) ||
      !reader.Get(&payload_size) || !reader.Get(&payload_crc)) {
    return size_t{0};
  }
  if (magic != kWireMagic) {
    return util::Status::InvalidArgument(util::StrFormat(
        "bad frame magic 0x%08x (want 0x%08x) — not a hosr_net stream",
        magic, kWireMagic));
  }
  if (version != kWireVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported wire version %u (this build speaks %u)", version,
        kWireVersion));
  }
  if (payload_size > kMaxPayload) {
    return util::Status::InvalidArgument(util::StrFormat(
        "frame payload %u bytes exceeds the %u-byte limit", payload_size,
        kMaxPayload));
  }
  std::string_view payload;
  if (!reader.GetBytes(payload_size, &payload)) return size_t{0};
  if (util::Crc32(payload) != payload_crc) {
    return util::Status::DataLoss(util::StrFormat(
        "frame payload CRC mismatch (got 0x%08x, want 0x%08x)",
        util::Crc32(payload), payload_crc));
  }
  frame->type = type;
  frame->payload.assign(payload);
  return kFrameHeaderSize + static_cast<size_t>(payload_size);
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string out;
  out.reserve(24);
  util::ByteWriter writer(&out);
  writer.Put(request.trace_id);
  writer.Put(request.user);
  writer.Put(request.k);
  writer.Put(request.deadline_ms);
  writer.Put(request.flags);
  return out;
}

util::StatusOr<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  util::ByteReader reader(payload);
  QueryRequest request;
  if (!reader.Get(&request.trace_id) || !reader.Get(&request.user) ||
      !reader.Get(&request.k) || !reader.Get(&request.deadline_ms) ||
      !reader.Get(&request.flags) || reader.remaining() != 0) {
    return Malformed("QueryRequest");
  }
  return request;
}

std::string EncodeQueryResponse(const QueryResponse& response) {
  std::string out;
  out.reserve(16 + response.items.size() * 8 + response.message.size());
  util::ByteWriter writer(&out);
  writer.Put(response.status_code);
  writer.Put(response.flags);
  writer.Put(static_cast<uint32_t>(response.items.size()));
  writer.Put(static_cast<uint32_t>(response.message.size()));
  for (const uint32_t item : response.items) writer.Put(item);
  writer.PutFloats(response.scores.data(), response.scores.size());
  writer.PutBytes(response.message);
  return out;
}

util::StatusOr<QueryResponse> DecodeQueryResponse(std::string_view payload) {
  util::ByteReader reader(payload);
  QueryResponse response;
  uint32_t num_items = 0, msg_len = 0;
  if (!reader.Get(&response.status_code) || !reader.Get(&response.flags) ||
      !reader.Get(&num_items) || !reader.Get(&msg_len)) {
    return Malformed("QueryResponse");
  }
  // Cross-check the declared counts against the actual payload size before
  // any allocation: 8 bytes per item (id + score) plus the message.
  const uint64_t declared =
      static_cast<uint64_t>(num_items) * 8 + msg_len;
  if (declared != reader.remaining()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "QueryResponse declares %u items + %u message bytes but carries "
        "%zu payload bytes",
        num_items, msg_len, reader.remaining()));
  }
  response.items.resize(num_items);
  for (uint32_t& item : response.items) reader.Get(&item);
  response.scores.resize(num_items);
  reader.GetFloats(response.scores.data(), num_items);
  response.message.assign(payload.substr(payload.size() - msg_len));
  return response;
}

std::string EncodeServerInfo(const ServerInfo& info) {
  std::string out;
  util::ByteWriter writer(&out);
  writer.Put(info.num_users);
  writer.Put(info.num_items);
  writer.Put(info.dim);
  writer.PutString<uint32_t>(info.model_name);
  return out;
}

util::StatusOr<ServerInfo> DecodeServerInfo(std::string_view payload) {
  util::ByteReader reader(payload);
  ServerInfo info;
  if (!reader.Get(&info.num_users) || !reader.Get(&info.num_items) ||
      !reader.Get(&info.dim) ||
      !reader.GetString<uint32_t>(&info.model_name) ||
      reader.remaining() != 0) {
    return Malformed("ServerInfo");
  }
  return info;
}

util::StatusOr<Frame> ReadFrame(int fd, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char header[kFrameHeaderSize];
  bool got = false;
  HOSR_ASSIGN_OR_RETURN(got,
                        RecvExactOrClosed(fd, header, kFrameHeaderSize));
  if (!got) {
    if (clean_eof != nullptr) *clean_eof = true;
    return util::Status::Unavailable("connection closed by peer");
  }
  // Validate the header before allocating or reading the payload: decode
  // against the header alone (payload_size == 0 until proven valid).
  Frame frame;
  std::string buffer(header, kFrameHeaderSize);
  auto consumed = TryDecodeFrame(buffer, &frame);
  if (!consumed.ok()) return consumed.status();
  if (consumed.value() == 0) {
    // Header is valid but a payload follows; read exactly that much.
    uint32_t payload_size = 0;
    util::ByteReader(std::string_view(buffer).substr(8, 4)).Get(&payload_size);
    buffer.resize(kFrameHeaderSize + payload_size);
    HOSR_RETURN_IF_ERROR(
        RecvExact(fd, buffer.data() + kFrameHeaderSize, payload_size));
    HOSR_ASSIGN_OR_RETURN(consumed, TryDecodeFrame(buffer, &frame));
  }
  return frame;
}

util::Status ResponseStatus(const QueryResponse& response) {
  // util::StatusCode runs without gaps from kOk to kDataLoss.
  if (response.status_code >
      static_cast<uint32_t>(util::StatusCode::kDataLoss)) {
    return util::Status::Internal(util::StrFormat(
        "server sent unknown status code %u: %s", response.status_code,
        response.message.c_str()));
  }
  const auto code = static_cast<util::StatusCode>(response.status_code);
  if (code == util::StatusCode::kOk) return util::Status::Ok();
  return util::Status(code, response.message);
}

}  // namespace hosr::net
