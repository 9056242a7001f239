#include "net/client.h"

#include <utility>

#include "util/string_util.h"

namespace hosr::net {

util::StatusOr<NetClient> NetClient::Connect(const std::string& host,
                                             int port) {
  return Connect(host, port, Options{});
}

util::StatusOr<NetClient> NetClient::Connect(const std::string& host,
                                             int port, Options options) {
  auto fd = ConnectTcp(host, port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  ScopedFd owned(fd.value());
  SetRecvTimeoutMs(owned.get(), options.read_timeout_ms);
  SetSendTimeoutMs(owned.get(), kWriteTimeoutMs);
  return NetClient(host, port, options, std::move(owned));
}

util::Status NetClient::Reconnect() {
  fd_.reset();
  auto fresh = Connect(host_, port_, options_);
  if (!fresh.ok()) return fresh.status();
  *this = std::move(fresh).value();
  return util::Status::Ok();
}

util::StatusOr<Frame> NetClient::RoundTrip(const std::string& frame,
                                                 FrameType expect) {
  if (fd_.get() < 0) {
    return util::Status::FailedPrecondition("client is not connected");
  }
  if (util::Status sent = SendAll(fd_.get(), frame); !sent.ok()) {
    return sent;
  }
  bool clean_eof = false;
  auto reply = ReadFrame(fd_.get(), &clean_eof);
  if (!reply.ok()) {
    if (clean_eof) {
      return util::Status::Unavailable("connection closed by peer");
    }
    return reply.status();
  }
  if (reply->type != static_cast<uint16_t>(expect)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unexpected reply frame type %u (want %u)", reply->type,
        static_cast<unsigned>(expect)));
  }
  return reply;
}

util::StatusOr<NetClient::QueryResult> NetClient::Query(uint32_t user,
                                                        uint32_t k,
                                                        uint64_t trace_id,
                                                        uint32_t deadline_ms) {
  QueryRequest request;
  request.trace_id = trace_id;
  request.user = user;
  request.k = k;
  request.deadline_ms = deadline_ms;
  auto reply = RoundTrip(
      EncodeFrame(FrameType::kQuery,
                        EncodeQueryRequest(request)),
      FrameType::kQueryReply);
  if (!reply.ok()) return reply.status();
  auto response = DecodeQueryResponse(reply->payload);
  if (!response.ok()) return response.status();
  if (util::Status status = ResponseStatus(*response); !status.ok()) {
    return status;
  }
  QueryResult result;
  result.items = std::move(response->items);
  result.scores = std::move(response->scores);
  result.served_from_cache =
      (response->flags & kResponseFromCache) != 0;
  result.degraded = (response->flags & kResponseDegraded) != 0;
  return result;
}

util::StatusOr<ServerInfo> NetClient::Info() {
  auto reply = RoundTrip(EncodeFrame(FrameType::kInfo, {}),
                         FrameType::kInfoReply);
  if (!reply.ok()) return reply.status();
  return DecodeServerInfo(reply->payload);
}

}  // namespace hosr::net
