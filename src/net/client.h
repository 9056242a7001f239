#ifndef HOSR_NET_CLIENT_H_
#define HOSR_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "util/statusor.h"

namespace hosr::net {

// Blocking client for the hosr::net wire protocol (net/wire.h). One client
// owns one persistent connection; requests on it are answered in order.
// Not thread-safe — use one client per thread (the loadgen model) or
// serialize calls externally.
//
// Every wire or protocol failure surfaces as a util::Status:
//   DeadlineExceeded  read/write timed out (or the server answered that the
//                     request's deadline_ms expired)
//   Unavailable       connection closed by peer / server shedding or draining
//   IoError           other socket errors
// After a non-OK Query()/Info() the connection state is unknown; callers
// should Reconnect() or discard the client.
class NetClient {
 public:
  struct Options {
    int connect_timeout_ms = 5000;
    int read_timeout_ms = 30000;
  };

  // One served ranking as it crossed the wire.
  struct QueryResult {
    std::vector<uint32_t> items;  // best first
    std::vector<float> scores;    // parallel to items
    bool served_from_cache = false;
    bool degraded = false;
  };

  // Connects (with connect_timeout_ms) and arms the per-socket timeouts.
  static util::StatusOr<NetClient> Connect(const std::string& host, int port,
                                           Options options);
  static util::StatusOr<NetClient> Connect(const std::string& host, int port);

  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;

  // Sends one query and blocks for its reply. deadline_ms == 0 means no
  // deadline; non-zero rides the wire and is enforced server-side against
  // the engine's per-block checks. A non-OK server status code comes back
  // as that same Status (e.g. OutOfRange for a bad user id).
  util::StatusOr<QueryResult> Query(uint32_t user, uint32_t k,
                                    uint64_t trace_id = 0,
                                    uint32_t deadline_ms = 0);

  // Fetches the server's model metadata (dimensions, name).
  util::StatusOr<ServerInfo> Info();

  // Drops the current connection and dials again (same host/port/options).
  util::Status Reconnect();

  bool connected() const { return fd_.get() >= 0; }

 private:
  NetClient(std::string host, int port, Options options, ScopedFd fd)
      : host_(std::move(host)), port_(port), options_(options),
        fd_(std::move(fd)) {}

  // Writes `frame`, reads one frame back, and checks it has `expect` type.
  util::StatusOr<Frame> RoundTrip(const std::string& frame,
                                        FrameType expect);

  std::string host_;
  int port_ = 0;
  Options options_;
  ScopedFd fd_;
};

}  // namespace hosr::net

#endif  // HOSR_NET_CLIENT_H_
